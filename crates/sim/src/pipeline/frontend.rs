//! Fetch stage: I-cache timing, branch prediction (BTB + gshare + RAS),
//! and predecode into the fetch queue.
//!
//! The stage's output latch is [`Frontend::queue`], a bounded queue of
//! [`Fetched`] slots the dispatch stage drains; no other frontend state
//! is visible downstream. Redirects (mispredict repair, flush-restart)
//! come back through [`Frontend::redirect`].
//!
//! Fetch takes each word already decoded from the [`DecodeTable`]: the
//! fault-free signals and operand plan ride in the latch, so dispatch
//! derives them again only when a decode-signal fault changed the
//! signals. Predecode reads the same slot's true opcode and immediate
//! ([`RawWord`](super::predecode::RawWord)) to predict the next PC.

use super::predecode::{DecodeTable, Decoded};
use super::PipelineStats;
use crate::branch::{Btb, Gshare, ReturnStack};
use crate::cache::TimingCache;
use crate::config::PipelineConfig;
use crate::mem::Memory;
use itr_isa::{DecodeSignals, Opcode, Program};
use std::collections::VecDeque;
use std::sync::Arc;

/// One predecoded instruction: the fetch→dispatch latch entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(in crate::pipeline) struct Fetched {
    pub pc: u64,
    /// The word at `pc`, decoded (a fetch-swap fault moves it to the
    /// neighbouring slot).
    pub decoded: Decoded,
    pub predicted_next: u64,
    pub ghr_snapshot: u32,
    pub used_gshare: bool,
}

/// Fetch-stage state: PC, I-cache, predictors, and the output queue.
#[derive(Debug, Clone)]
pub(in crate::pipeline) struct Frontend {
    pub fetch_pc: u64,
    pub icache: TimingCache,
    pub icache_stall: u32,
    /// The fetch→dispatch latch.
    pub queue: VecDeque<Fetched>,
    /// Set on an un-decodable word (wild fetch); cleared by a redirect.
    pub halted: bool,
    pub gshare: Gshare,
    pub btb: Btb,
    pub ras: ReturnStack,
    /// The program text decoded, shared with forks.
    pub table: Arc<DecodeTable>,
}

impl Frontend {
    /// `true` when `other` fetches the same instructions from here on
    /// (the I-cache counters and the decode table, which memory
    /// determines, are left out).
    pub fn same_state(&self, other: &Frontend) -> bool {
        self.fetch_pc == other.fetch_pc
            && self.icache_stall == other.icache_stall
            && self.halted == other.halted
            && self.queue == other.queue
            && self.gshare == other.gshare
            && self.btb == other.btb
            && self.ras == other.ras
            && self.icache.same_state(&other.icache)
    }

    pub fn new(cfg: &PipelineConfig, program: &Program) -> Frontend {
        Frontend {
            fetch_pc: program.entry(),
            icache: TimingCache::new(cfg.icache),
            icache_stall: 0,
            queue: VecDeque::new(),
            halted: false,
            gshare: Gshare::new(cfg.gshare_bits),
            btb: Btb::new(cfg.btb_entries),
            ras: ReturnStack::new(cfg.ras_entries as usize),
            table: DecodeTable::new(program),
        }
    }

    /// Steers fetch to `pc`, discarding everything in flight in the
    /// stage (used by mispredict repair and full flushes).
    pub fn redirect(&mut self, pc: u64) {
        self.queue.clear();
        self.halted = false;
        self.icache_stall = 0;
        self.fetch_pc = pc;
    }

    fn predecode(&mut self, pc: u64, decoded: Decoded) -> Fetched {
        let ghr_snapshot = self.gshare.history();
        let mut used_gshare = false;
        let raw = decoded.raw;
        let predicted_next = match raw.op {
            op if op.is_cond_branch() => {
                used_gshare = true;
                let taken = self.gshare.predict_and_update_history(pc);
                if taken {
                    raw.direct_target(pc).unwrap_or(pc + 4)
                } else {
                    pc + 4
                }
            }
            Opcode::J => raw.direct_target(pc).unwrap_or(pc + 4),
            Opcode::Jal => {
                self.ras.push(pc + 4);
                raw.direct_target(pc).unwrap_or(pc + 4)
            }
            Opcode::Jr => {
                // A fault-free `jr`'s first source is its `rs` field.
                if DecodeSignals::unpack(decoded.sig).rsrc1 == 31 {
                    self.ras.pop().unwrap_or(pc + 4)
                } else {
                    self.btb.lookup(pc).unwrap_or(pc + 4)
                }
            }
            Opcode::Jalr => {
                self.ras.push(pc + 4);
                self.btb.lookup(pc).unwrap_or(pc + 4)
            }
            _ => pc + 4,
        };
        Fetched { pc, decoded, predicted_next, ghr_snapshot, used_gshare }
    }

    /// One fetch cycle: up to `width` instructions from one cache line,
    /// ending early at a predicted-taken redirect or line boundary.
    pub fn fetch(&mut self, mem: &Memory, cfg: &PipelineConfig, stats: &mut PipelineStats) {
        if self.halted {
            return;
        }
        if self.icache_stall > 0 {
            self.icache_stall -= 1;
            return;
        }
        if self.queue.len() as u32 >= cfg.fetch_queue {
            return;
        }
        // One I-cache access per productive fetch cycle (the unit of the
        // §5 energy accounting).
        let hit = self.icache.access(self.fetch_pc);
        stats.icache_accesses += 1;
        if !hit {
            stats.icache_misses += 1;
            self.icache_stall = cfg.icache_miss_penalty;
            return;
        }
        for _ in 0..cfg.width {
            if self.queue.len() as u32 >= cfg.fetch_queue {
                break;
            }
            let pc = self.fetch_pc;
            let Some(decoded) = self.table.fetch(mem, pc) else {
                // Un-decodable word (wild fetch): stall until a redirect.
                self.halted = true;
                break;
            };
            let fetched = self.predecode(pc, decoded);
            let next = fetched.predicted_next;
            self.queue.push_back(fetched);
            self.fetch_pc = next;
            if next != pc + 4 {
                break; // predicted-taken redirect ends the fetch group
            }
            if !self.icache.same_line(pc, next) {
                break; // next instruction sits in a different cache line
            }
        }
    }
}
