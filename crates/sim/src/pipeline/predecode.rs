//! The decode table: each text word decoded once, on its first fetch.
//!
//! Decoding is a pure function of the word, and a run fetches the same
//! few thousand text words again and again (wrong paths included), so
//! fetch reads an aligned in-text PC from a [`DecodeTable`] slot instead
//! of reading memory and decoding: the slot holds the fault-free packed
//! signals, the [`OperandPlan`] they name, and the true opcode and
//! immediate ([`RawWord`]), as the two words of a [`Decoded`].
//! Out-of-text fetches (wild jumps into data) read and decode memory
//! every time. Slots come in chunks of 256 words, allocated when one of
//! their words is first fetched.
//!
//! A slot is filled on the word's first fetch, not at
//! [`Pipeline::new`](super::Pipeline::new): a short run fetches a small
//! part of a large text, and decoding a word costs tens of nanoseconds.
//! The table is shared through an [`Arc`] by every fork and kept clean
//! state of one pipeline, which is why its slots are atomics: a fork on
//! another thread may fill a slot the others then read. Filling is safe
//! across sharers because they all hold the same text: a committed store
//! into the text ([`DecodeTable::store`]) first copies the table if it is
//! shared, then empties the overwritten slots, so the next fetch decodes
//! the new word. The table is derived from memory, so `same_state`
//! leaves it out.

use crate::mem::Memory;
use crate::semantics::{operand_plan, OperandPlan};
use itr_isa::{decode, DecodeSignals, Opcode, Program};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A fetched word as predecode hardware beside the decoder reads it: the
/// true opcode and immediate. The immediate carries the 26-bit target of
/// a J-format jump, which no Table-2 signal holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(in crate::pipeline) struct RawWord {
    pub op: Opcode,
    pub imm: i32,
}

/// The word of a ROB slot never dispatched into.
impl Default for RawWord {
    fn default() -> RawWord {
        RawWord { op: Opcode::ALL[0], imm: 0 }
    }
}

impl RawWord {
    /// The direct branch or jump target of this word at `pc`.
    pub fn direct_target(&self, pc: u64) -> Option<u64> {
        self.op.direct_target(self.imm, pc)
    }
}

/// One decoded text word: what the fetch latch carries to dispatch.
///
/// Both fields are whole words, which the latch and the decode slot
/// copy as they are; a struct of narrower fields, written field by
/// field and then copied, costs a store-forwarding stall per fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(in crate::pipeline) struct Decoded {
    /// The fault-free Table-2 signals, packed ([`DecodeSignals::pack`]).
    pub sig: u64,
    /// The true immediate and the operands `sig` names
    /// ([`operand_plan`]), packed as in a slot's second word, without
    /// its fill state.
    rest: u64,
}

impl Decoded {
    /// Decodes `word`; `None` when it does not decode.
    pub fn of(word: u32) -> Option<Decoded> {
        let inst = decode(word).ok()?;
        let sig = DecodeSignals::from_instruction(&inst);
        let packed = sig.pack();
        debug_assert_eq!(DecodeSignals::unpack(packed), sig, "decoded signals fit their fields");
        debug_assert_eq!(Opcode::from_id(packed as u8), Some(inst.op), "signals name the opcode");
        let p = operand_plan(&sig);
        let rest = u64::from(inst.imm as u32)
            | pack_reg(p.srcs[0]) << PLAN_SHIFT
            | pack_reg(p.srcs[1]) << (PLAN_SHIFT + 7)
            | pack_reg(p.dst) << (PLAN_SHIFT + 14)
            | if p.phantom_src { PHANTOM } else { 0 };
        Some(Decoded { sig: packed, rest })
    }

    /// The true opcode and immediate.
    pub fn raw(&self) -> RawWord {
        let op = Opcode::from_id(self.sig as u8).expect("fault-free signals name an opcode");
        RawWord { op, imm: self.rest as u32 as i32 }
    }

    /// The operands the fault-free signals name.
    pub fn plan(&self) -> OperandPlan {
        let bits = self.rest;
        OperandPlan {
            srcs: [unpack_reg(bits >> PLAN_SHIFT), unpack_reg(bits >> (PLAN_SHIFT + 7))],
            phantom_src: bits & PHANTOM != 0,
            dst: unpack_reg(bits >> (PLAN_SHIFT + 14)),
        }
    }
}

/// Bit layout of a slot's second word ([`Decoded::rest`]): the
/// immediate in bits 0..32, the three 7-bit operand indexes ([`NO_REG`]
/// for none) from bit 32, the phantom flag, and the fill state in the
/// top two bits. An empty slot is all zeros.
const PLAN_SHIFT: u32 = 32;
const PHANTOM: u64 = 1 << 53;
const UNDECODABLE: u64 = 1 << 62;
const FILLED: u64 = 1 << 63;
const NO_REG: u64 = 0x7F;

fn pack_reg(reg: Option<u16>) -> u64 {
    reg.map_or(NO_REG, u64::from)
}

fn unpack_reg(bits: u64) -> Option<u16> {
    let reg = bits & NO_REG;
    (reg != NO_REG).then_some(reg as u16)
}

/// Text words per lazily allocated chunk of slots.
const CHUNK_WORDS: usize = 256;

/// One word's slot: the packed signals and the packed rest.
type Slot = [AtomicU64; 2];

/// `CHUNK_WORDS` slots, allocated on the first fetch of one of its words.
type Chunk = [Slot; CHUNK_WORDS];

fn empty_chunk() -> Box<Chunk> {
    Box::new(std::array::from_fn(|_| Slot::default()))
}

/// The program text's decode slots (see the module docs), in chunks
/// allocated on first use: a pipeline pays for the code it fetches, not
/// for the whole text.
#[derive(Debug)]
pub(in crate::pipeline) struct DecodeTable {
    text_base: u64,
    /// Text words.
    len: usize,
    chunks: Vec<OnceLock<Box<Chunk>>>,
}

impl Clone for DecodeTable {
    fn clone(&self) -> DecodeTable {
        let chunks = self
            .chunks
            .iter()
            .map(|chunk| {
                chunk.get().map_or_else(OnceLock::new, |chunk| {
                    let mut copy = empty_chunk();
                    for (to, [sig, rest]) in copy.iter_mut().zip(chunk.iter()) {
                        // Read order matters, as in `fetch`: a filler on
                        // another thread stores `sig`, then `rest` with
                        // FILLED, so `sig` is only whole once `rest` has
                        // been seen FILLED. A slot seen mid-fill is copied
                        // empty, and the copy's next fetch fills it.
                        let bits = rest.load(Ordering::Acquire);
                        if bits & FILLED != 0 {
                            *to =
                                [AtomicU64::new(sig.load(Ordering::Relaxed)), AtomicU64::new(bits)];
                        }
                    }
                    OnceLock::from(copy)
                })
            })
            .collect();
        DecodeTable { text_base: self.text_base, len: self.len, chunks }
    }
}

impl DecodeTable {
    /// An empty table over `program`'s text.
    pub fn new(program: &Program) -> Arc<DecodeTable> {
        let len = program.text().len();
        let chunks = (0..len.div_ceil(CHUNK_WORDS)).map(|_| OnceLock::new()).collect();
        Arc::new(DecodeTable { text_base: program.text_base(), len, chunks })
    }

    /// The text word index of an aligned in-text `pc`.
    fn word(&self, pc: u64) -> Option<usize> {
        let off = pc.wrapping_sub(self.text_base);
        if !off.is_multiple_of(4) {
            return None;
        }
        usize::try_from(off / 4).ok().filter(|&w| w < self.len)
    }

    /// The slot of an aligned in-text `pc`, allocating its chunk.
    fn slot(&self, pc: u64) -> Option<&Slot> {
        let word = self.word(pc)?;
        let chunk = self.chunks[word / CHUNK_WORDS].get_or_init(empty_chunk);
        Some(&chunk[word % CHUNK_WORDS])
    }

    /// The word at `pc` decoded; `None` when it does not decode. Reads
    /// memory and decodes only on an in-text word's first fetch, or for
    /// any PC outside the text. Inlined into fetch, a filled slot costs
    /// its two loads; the fill is out of line.
    #[inline]
    pub fn fetch(&self, mem: &Memory, pc: u64) -> Option<Decoded> {
        if let Some(word) = self.word(pc) {
            if let Some(chunk) = self.chunks[word / CHUNK_WORDS].get() {
                let [sig, rest] = &chunk[word % CHUNK_WORDS];
                // Read order matters: see `fill`.
                let bits = rest.load(Ordering::Acquire);
                if bits & FILLED != 0 {
                    return (bits & UNDECODABLE == 0).then(|| Decoded {
                        sig: sig.load(Ordering::Relaxed),
                        rest: bits & !FILLED,
                    });
                }
            }
        }
        self.fill(mem, pc)
    }

    /// Decodes the word at `pc` and, when it is in the text, fills its
    /// slot: the signals first, then the rest with FILLED, so a reader
    /// that sees FILLED sees whole signals.
    #[cold]
    #[inline(never)]
    fn fill(&self, mem: &Memory, pc: u64) -> Option<Decoded> {
        let decoded = Decoded::of(mem.read_u32(pc));
        let Some([sig, rest]) = self.slot(pc) else { return decoded };
        match decoded {
            Some(d) => {
                sig.store(d.sig, Ordering::Relaxed);
                rest.store(FILLED | d.rest, Ordering::Release);
            }
            None => rest.store(FILLED | UNDECODABLE, Ordering::Release),
        }
        decoded
    }

    /// Empties the slots of the words a committed `size`-byte store at
    /// `addr` overwrote, copying the table first if another pipeline
    /// shares it. Stores outside the text cost two compares.
    pub fn store(table: &mut Arc<DecodeTable>, addr: u64, size: u8) {
        let end = addr.saturating_add(u64::from(size.min(4)));
        let text_end = table.text_base + 4 * table.len as u64;
        if end <= table.text_base || addr >= text_end || end == addr {
            return;
        }
        let first = (addr.max(table.text_base) - table.text_base) / 4;
        let last = (end.min(text_end) - 1 - table.text_base) / 4;
        let table = Arc::make_mut(table);
        for word in first as usize..=last as usize {
            if let Some(chunk) = table.chunks[word / CHUNK_WORDS].get_mut() {
                chunk[word % CHUNK_WORDS] = Slot::default();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itr_isa::asm::assemble;

    /// A program of `words - 1` distinct `addi`s and a `halt`.
    fn straight_line(words: usize) -> Program {
        let body: String =
            (1..words).map(|i| format!("addi r{}, r0, {}\n", 8 + i % 8, i % 30_000)).collect();
        assemble(&format!("main:\n{body}halt\n")).expect("assembles")
    }

    #[test]
    fn a_copy_keeps_filled_slots_and_empties_half_filled_ones() {
        let p = straight_line(3);
        let mem = Memory::with_program(&p);
        let table = DecodeTable::new(&p);
        let base = p.text_base();
        let first = table.fetch(&mem, base).expect("decodes");
        // A filler has stored the second word's signals but not yet its
        // FILLED rest.
        let [sig, rest] = table.slot(base + 4).expect("in text");
        sig.store(first.sig, Ordering::Relaxed);
        assert_eq!(rest.load(Ordering::Relaxed), 0);
        let copy = DecodeTable::clone(&table);
        let [sig, rest] = copy.slot(base + 4).expect("in text");
        assert_eq!((sig.load(Ordering::Relaxed), rest.load(Ordering::Relaxed)), (0, 0));
        for pc in [base, base + 4, base + 8] {
            assert_eq!(copy.fetch(&mem, pc), Decoded::of(mem.read_u32(pc)), "pc {pc:#x}");
        }
    }

    /// Copies a table again and again while another thread fills it:
    /// every slot a copy holds as filled decodes to its word, never to a
    /// fill seen half done.
    #[test]
    fn a_copy_taken_during_fills_holds_only_whole_slots() {
        use std::sync::atomic::AtomicBool;
        let p = straight_line(CHUNK_WORDS);
        let mem = Memory::with_program(&p);
        let base = p.text_base();
        let expected: Vec<Option<Decoded>> =
            (0..CHUNK_WORDS as u64).map(|w| Decoded::of(mem.read_u32(base + 4 * w))).collect();
        for _ in 0..500 {
            let table = DecodeTable::new(&p);
            table.slot(base).expect("in text");
            let done = AtomicBool::new(false);
            std::thread::scope(|s| {
                s.spawn(|| {
                    for w in 0..CHUNK_WORDS as u64 {
                        table.fetch(&mem, base + 4 * w);
                    }
                    done.store(true, Ordering::Release);
                });
                while !done.load(Ordering::Acquire) {
                    let copy = DecodeTable::clone(&table);
                    let chunk = copy.chunks[0].get().expect("allocated before the fills");
                    for (w, want) in expected.iter().enumerate() {
                        if chunk[w][1].load(Ordering::Relaxed) != 0 {
                            assert_eq!(copy.fetch(&mem, base + 4 * w as u64), *want, "word {w}");
                        }
                    }
                }
            });
        }
    }
}
