//! Counter units. Producers keep their counters as plain `u64` fields
//! of their stats structs and list each one with its [`Unit`] when they
//! export (see [`crate::Report::push_section`]).

/// What a counter's value measures, carried into the JSON export so
/// consumers don't have to guess.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Machine cycles.
    Cycles,
    /// Dynamic instructions.
    Instructions,
    /// ITR traces.
    Traces,
    /// SRAM array accesses (the unit of the §5 energy accounting).
    Accesses,
    /// Discrete events (mismatches, flushes, violations, …).
    Events,
}

impl Unit {
    /// Stable lowercase name used in the JSON export.
    pub fn name(self) -> &'static str {
        match self {
            Unit::Cycles => "cycles",
            Unit::Instructions => "instructions",
            Unit::Traces => "traces",
            Unit::Accesses => "accesses",
            Unit::Events => "events",
        }
    }

    /// Parses the JSON-export name back to a unit.
    pub fn parse(s: &str) -> Option<Unit> {
        Some(match s {
            "cycles" => Unit::Cycles,
            "instructions" => Unit::Instructions,
            "traces" => Unit::Traces,
            "accesses" => Unit::Accesses,
            "events" => Unit::Events,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_names_roundtrip() {
        for u in [Unit::Cycles, Unit::Instructions, Unit::Traces, Unit::Accesses, Unit::Events] {
            assert_eq!(Unit::parse(u.name()), Some(u));
        }
        assert_eq!(Unit::parse("bogus"), None);
    }
}
