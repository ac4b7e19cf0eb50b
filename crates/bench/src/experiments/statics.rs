//! Leaf jobs with no simulation behind them: Table 2 (decode signals)
//! and the §5 area comparison. Pure functions of the implementation, so
//! each is a single emit shard.

use super::Emitted;
use itr_harness::{JobSpec, Registry};
use itr_isa::{SIGNAL_FIELDS, TOTAL_SIGNAL_BITS};
use itr_power::{itr_cache_area_cm2, AreaComparison};
use std::fmt::Write as _;
use std::path::Path;

/// Renders Table 2 (`table2_signals.txt`).
pub fn render_table2() -> Emitted {
    let mut text = String::new();
    let _ = writeln!(text, "=== Table 2: list of decode signals ===");
    let _ = writeln!(text, "{:<10} {:<42} {:>5}", "field", "description", "width");
    let mut total = 0;
    for f in SIGNAL_FIELDS {
        let _ = writeln!(text, "{:<10} {:<42} {:>5}", f.name, f.description, f.width);
        total += f.width;
    }
    let _ = writeln!(text, "{:<10} {:<42} {:>5}", "total", "", total);
    assert_eq!(total, TOTAL_SIGNAL_BITS);
    Emitted { txt_name: "table2_signals.txt", text, csv: None }
}

/// Renders the §5 area comparison (`table_area.txt`).
pub fn render_area() -> Emitted {
    let cmp = AreaComparison::paper_itr_cache();
    let mut text = String::new();
    let _ = writeln!(text, "=== §5 area comparison (S/390 G5 die photo) ===");
    let _ = writeln!(
        text,
        "I-unit (fetch + decode):          {:>6.2} cm²  (paper: 2.1 cm²)",
        cmp.iunit_cm2
    );
    let _ = writeln!(
        text,
        "ITR cache (1024 × 64-bit, 2-way): {:>6.3} cm²  (paper: ~0.3 cm² BTB-like structure)",
        cmp.itr_cache_cm2
    );
    let _ = writeln!(text, "Ratio: {:.1}× smaller (paper: \"about one seventh\")", cmp.ratio());
    let _ = writeln!(text, "\nSensitivity:");
    for (entries, bits) in [(256u32, 64u32), (512, 64), (1024, 64), (2048, 64)] {
        let _ = writeln!(
            text,
            "  {entries:>5} signatures × {bits} bits: {:>6.3} cm² ({:.1}× smaller than the I-unit)",
            itr_cache_area_cm2(entries, bits),
            cmp.iunit_cm2 / itr_cache_area_cm2(entries, bits)
        );
    }
    Emitted { txt_name: "table_area.txt", text, csv: None }
}

/// Registers the two leaf jobs.
pub fn register(reg: &mut Registry, out: &Path) {
    let dir = out.to_path_buf();
    reg.add(JobSpec::single("table2", &[], move |_, _| {
        super::emit_payload(&dir, &render_table2())
    }));
    let dir = out.to_path_buf();
    reg.add(JobSpec::single("area", &[], move |_, _| super::emit_payload(&dir, &render_area())));
}
