//! The fuzzer's unit of work: a self-contained, replayable `rISA`
//! program.
//!
//! A [`FuzzCase`] is a decoded instruction list plus an initial data
//! image and an entry index. Keeping instructions decoded (rather than
//! raw words) makes every mutation structure-aware by construction: the
//! mutators permute [`Instruction`] fields and re-encoding always yields
//! a valid word, so the fuzzer explores program *behaviour* rather than
//! decoder error paths.
//!
//! Cases serialize to a small JSON document (`itr-fuzz-case/v1`) so a
//! finding can be checked into `tests/fuzz_regressions/` and replayed
//! byte-for-byte later.

use itr_isa::{decode, encode, Instruction, Program, ProgramBuilder};
use itr_stats::json::Value;

/// Schema tag of the serialized case format.
pub const CASE_SCHEMA: &str = "itr-fuzz-case/v1";

/// One fuzz input: a program in mutable, structure-aware form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzCase {
    /// Decoded text segment, in program order.
    pub text: Vec<Instruction>,
    /// Initial data-segment image at `DATA_BASE`.
    pub data: Vec<u8>,
    /// Entry point, as an index into `text`.
    pub entry: u32,
}

impl FuzzCase {
    /// Builds the runnable program image.
    ///
    /// # Panics
    ///
    /// Panics when the case is empty (the generator and mutators never
    /// produce an empty case).
    pub fn program(&self) -> Program {
        assert!(!self.text.is_empty(), "empty fuzz case");
        let mut b = ProgramBuilder::new();
        let entry = (self.entry as usize).min(self.text.len() - 1);
        for (i, inst) in self.text.iter().enumerate() {
            if i == entry {
                b.label("main").expect("single `main` label");
            }
            b.push(*inst);
        }
        if !self.data.is_empty() {
            b.data_bytes(&self.data);
        }
        b.build().expect("resolved instructions always build")
    }

    /// Encoded text words (the canonical identity of the case).
    pub fn words(&self) -> Vec<u32> {
        self.text.iter().map(encode).collect()
    }

    /// Rebuilds a case from encoded words and a data image.
    ///
    /// # Errors
    ///
    /// Returns a description of the first word that does not decode.
    pub fn from_words(words: &[u32], data: &[u8], entry: u32) -> Result<FuzzCase, String> {
        if words.is_empty() {
            return Err("case has no text".to_string());
        }
        let text = words
            .iter()
            .enumerate()
            .map(|(i, &w)| decode(w).map_err(|e| format!("word {i} ({w:#010x}): {e:?}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FuzzCase { text, data: data.to_vec(), entry })
    }

    /// Converts an assembled [`Program`] into a mutable case — the
    /// corpus-seeding path over the `itr-workloads` suite.
    ///
    /// # Errors
    ///
    /// Returns an error when a text word does not decode or the entry
    /// point falls outside the text segment.
    pub fn from_program(p: &Program) -> Result<FuzzCase, String> {
        if p.entry() < p.text_base() {
            return Err(format!("entry {:#x} below text base", p.entry()));
        }
        let entry = (p.entry() - p.text_base()) / 4;
        if entry >= p.text().len() as u64 {
            return Err(format!("entry {:#x} beyond text", p.entry()));
        }
        FuzzCase::from_words(p.text(), p.data(), entry as u32)
    }

    /// FNV-1a fingerprint over entry, text words and data — the corpus
    /// identity used for dedup and for the deterministic stats export.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        for b in self.entry.to_le_bytes() {
            eat(b);
        }
        for w in self.words() {
            for b in w.to_le_bytes() {
                eat(b);
            }
        }
        for &b in &self.data {
            eat(b);
        }
        h
    }

    /// Serializes to the `itr-fuzz-case/v1` JSON body (text words as hex
    /// strings, data as one hex string).
    pub fn to_value(&self) -> Value {
        let text = self.words().iter().map(|w| Value::Str(format!("{w:#010x}"))).collect();
        let mut data = String::with_capacity(self.data.len() * 2);
        for b in &self.data {
            data.push_str(&format!("{b:02x}"));
        }
        Value::Object(vec![
            ("schema".to_string(), Value::Str(CASE_SCHEMA.to_string())),
            ("entry".to_string(), Value::UInt(u64::from(self.entry))),
            ("text".to_string(), Value::Array(text)),
            ("data".to_string(), Value::Str(data)),
        ])
    }

    /// Deserializes a case from its JSON body.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_value(v: &Value) -> Result<FuzzCase, String> {
        match v.get("schema").and_then(Value::as_str) {
            Some(CASE_SCHEMA) => {}
            other => return Err(format!("unsupported case schema {other:?}")),
        }
        let entry = v.get("entry").and_then(Value::as_u64).ok_or("missing entry")?;
        let entry = u32::try_from(entry).map_err(|_| format!("entry {entry} is out of range"))?;
        let words = v
            .get("text")
            .and_then(Value::as_array)
            .ok_or("missing text")?
            .iter()
            .map(|w| {
                let s = w.as_str().ok_or_else(|| "text word is not a string".to_string())?;
                u32::from_str_radix(s.trim_start_matches("0x"), 16)
                    .map_err(|e| format!("text word `{s}`: {e}"))
            })
            .collect::<Result<Vec<u32>, String>>()?;
        let hex = v.get("data").and_then(Value::as_str).unwrap_or("");
        if !hex.len().is_multiple_of(2) {
            return Err("odd-length data hex".to_string());
        }
        let data = (0..hex.len() / 2)
            .map(|i| {
                u8::from_str_radix(&hex[2 * i..2 * i + 2], 16)
                    .map_err(|e| format!("data byte {i}: {e}"))
            })
            .collect::<Result<Vec<u8>, String>>()?;
        FuzzCase::from_words(&words, &data, entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itr_isa::{trap, Opcode};

    fn tiny() -> FuzzCase {
        FuzzCase {
            text: vec![
                Instruction::rri(Opcode::Addi, 8, 0, 7),
                Instruction::rrr(Opcode::Add, 9, 8, 8),
                Instruction::trap(trap::HALT),
            ],
            data: vec![1, 2, 3, 4],
            entry: 0,
        }
    }

    #[test]
    fn program_round_trips_through_words() {
        let case = tiny();
        let p = case.program();
        assert_eq!(p.text(), case.words().as_slice());
        assert_eq!(p.entry(), p.text_base());
        let back = FuzzCase::from_program(&p).unwrap();
        assert_eq!(back, case);
    }

    #[test]
    fn json_round_trip_preserves_identity() {
        let case = tiny();
        let text = case.to_value().to_json();
        let back = FuzzCase::from_value(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back, case);
        assert_eq!(back.fingerprint(), case.fingerprint());

        // An entry past `u32::MAX` is an error, not a truncated entry.
        let mut v = case.to_value();
        let Value::Object(fields) = &mut v else { unreachable!("a case is an object") };
        let entry = fields.iter_mut().find(|(key, _)| key == "entry").expect("an entry field");
        entry.1 = Value::UInt((1 << 32) + u64::from(case.entry));
        let err = FuzzCase::from_value(&v).unwrap_err();
        assert!(err.contains("entry 4294967296 is out of range"), "{err}");
    }

    #[test]
    fn entry_offset_survives_the_round_trip() {
        let case = FuzzCase { entry: 1, ..tiny() };
        let p = case.program();
        assert_eq!(p.entry(), p.text_base() + 4);
        assert_eq!(FuzzCase::from_program(&p).unwrap().entry, 1);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(FuzzCase::from_value(&Value::parse("{}").unwrap()).is_err());
        assert!(FuzzCase::from_words(&[], &[], 0).is_err());
    }
}
