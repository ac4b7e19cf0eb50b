//! Sparse byte-addressable memory.

use itr_isa::Program;

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;

type Page = [u8; PAGE_SIZE];

/// Offset of `addr` within its page.
fn offset(addr: u64) -> usize {
    (addr & (PAGE_SIZE as u64 - 1)) as usize
}

/// Sparse little-endian memory backed by 4 KiB pages.
///
/// Reads of unmapped addresses return zero without allocating (so a
/// faulty wild load cannot exhaust memory); writes allocate on demand.
/// An access that stays inside one page looks the page up once, by
/// binary search over the resident pages, so the store is hash-free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Memory {
    /// Resident pages, sorted by page number.
    pages: Vec<(u64, Box<Page>)>,
}

impl Memory {
    /// An empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// A memory preloaded with a program's text and data segments.
    pub fn with_program(program: &Program) -> Memory {
        let mut m = Memory::new();
        m.load_program(program);
        m
    }

    /// Copies a program's text and data segments into memory, one page
    /// lookup and one slice copy per page touched.
    pub fn load_program(&mut self, program: &Program) {
        let mut addr = program.text_base();
        // Both text bases a `Program` can have are word aligned, so no
        // word straddles a page.
        assert!(addr.is_multiple_of(4), "unaligned text base {addr:#x}");
        let mut words = program.text();
        while !words.is_empty() {
            let off = offset(addr);
            let n = ((PAGE_SIZE - off) / 4).min(words.len());
            let page = self.page_mut(addr);
            for (slot, word) in page[off..off + 4 * n].chunks_exact_mut(4).zip(&words[..n]) {
                slot.copy_from_slice(&word.to_le_bytes());
            }
            addr += 4 * n as u64;
            words = &words[n..];
        }
        self.copy_in(program.data_base(), program.data());
    }

    /// Writes `bytes` from `addr` on, one page lookup per page touched.
    fn copy_in(&mut self, mut addr: u64, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let off = offset(addr);
            let n = (PAGE_SIZE - off).min(bytes.len());
            self.page_mut(addr)[off..off + n].copy_from_slice(&bytes[..n]);
            addr += n as u64;
            bytes = &bytes[n..];
        }
    }

    /// Where the page holding `addr` is (`Ok`) or belongs (`Err`).
    fn find(&self, addr: u64) -> Result<usize, usize> {
        self.pages.binary_search_by_key(&(addr >> PAGE_BITS), |&(n, _)| n)
    }

    /// The page holding `addr`, if resident.
    fn page(&self, addr: u64) -> Option<&Page> {
        self.find(addr).ok().map(|i| &*self.pages[i].1)
    }

    /// The page holding `addr`, allocated on demand.
    fn page_mut(&mut self, addr: u64) -> &mut Page {
        let i = self.find(addr).unwrap_or_else(|i| {
            self.pages.insert(i, (addr >> PAGE_BITS, Box::new([0; PAGE_SIZE])));
            i
        });
        &mut self.pages[i].1
    }

    /// Reads one byte (zero if unmapped).
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.page(addr).map_or(0, |page| page[offset(addr)])
    }

    /// Writes one byte, allocating the page on demand.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[offset(addr)] = value;
    }

    /// Reads `size` bytes (1..=4, little-endian) into the low bytes of a
    /// `u32`. `size == 0` reads nothing and returns 0; sizes above 4 are
    /// clamped (a faulty `mem_size` signal cannot read more than a word).
    pub fn read(&self, addr: u64, size: u8) -> u32 {
        let size = size.min(4) as usize;
        let off = offset(addr);
        if off + size > PAGE_SIZE {
            // Straddles a page boundary: byte by byte.
            return (0..size).fold(0, |v, i| v | (self.read_u8(addr + i as u64) as u32) << (8 * i));
        }
        let Some(page) = self.page(addr) else { return 0 };
        let mut bytes = [0u8; 4];
        bytes[..size].copy_from_slice(&page[off..off + size]);
        u32::from_le_bytes(bytes)
    }

    /// Writes the low `size` bytes (1..=4, little-endian) of `value`.
    /// `size == 0` writes nothing; sizes above 4 are clamped.
    pub fn write(&mut self, addr: u64, size: u8, value: u32) {
        self.copy_in(addr, &value.to_le_bytes()[..size.min(4) as usize]);
    }

    /// Reads an aligned-or-not 32-bit word.
    pub fn read_u32(&self, addr: u64) -> u32 {
        self.read(addr, 4)
    }

    /// Writes a 32-bit word.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write(addr, 4, value);
    }

    /// Number of resident pages (each 4 KiB).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_reads_are_zero_and_do_not_allocate() {
        let m = Memory::new();
        assert_eq!(m.read_u32(0xDEAD_BEEF), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn little_endian_round_trip() {
        let mut m = Memory::new();
        m.write_u32(0x1000, 0x1122_3344);
        assert_eq!(m.read_u8(0x1000), 0x44);
        assert_eq!(m.read_u8(0x1003), 0x11);
        assert_eq!(m.read(0x1000, 2), 0x3344);
        assert_eq!(m.read_u32(0x1000), 0x1122_3344);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        m.write_u32(0x1FFE, 0xAABB_CCDD);
        assert_eq!(m.read_u32(0x1FFE), 0xAABB_CCDD);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn straddling_reads_of_half_mapped_words_do_not_allocate() {
        let mut m = Memory::new();
        m.write_u8(0x1FFF, 0xAA);
        assert_eq!(m.read_u32(0x1FFE), 0xAA00);
        assert_eq!(m.read_u32(0x0FFE), 0, "both pages unmapped");
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn wild_writes_keep_the_page_index_ordered() {
        let mut m = Memory::new();
        let addrs = [0x7FFF_F000u64, 0x1000, 0x40_0000, 0x3000, 0x1_0000_0000];
        for (i, &a) in addrs.iter().enumerate() {
            m.write_u32(a + 8, i as u32 + 1);
        }
        assert_eq!(m.resident_pages(), addrs.len());
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(m.read_u32(a + 8), i as u32 + 1);
        }
        assert!(m.pages.windows(2).all(|w| w[0].0 < w[1].0), "page index sorted");
    }

    #[test]
    fn program_loading_is_byte_exact_across_pages() {
        use itr_isa::{Instruction, Opcode, ProgramBuilder};
        // 2,500 words (10,000 bytes) of text cross two page boundaries;
        // 5,001 data bytes cross one and end mid-word.
        let mut b = ProgramBuilder::new();
        for i in 0..2500 {
            b.push(Instruction::rri(Opcode::Addi, 8, 9, i));
        }
        let data: Vec<u8> = (0..5001u32).map(|i| (i * 37 + 11) as u8).collect();
        b.data_bytes(&data);
        let p = b.build().unwrap();
        assert_eq!(p.data().len(), 5001);

        let mut bytewise = Memory::new();
        for (i, word) in p.text().iter().enumerate() {
            for (k, byte) in word.to_le_bytes().into_iter().enumerate() {
                bytewise.write_u8(p.text_base() + 4 * i as u64 + k as u64, byte);
            }
        }
        for (i, &byte) in p.data().iter().enumerate() {
            bytewise.write_u8(p.data_base() + i as u64, byte);
        }
        assert_eq!(Memory::with_program(&p), bytewise);
    }

    #[test]
    fn partial_write_preserves_neighbors() {
        let mut m = Memory::new();
        m.write_u32(0x100, 0xFFFF_FFFF);
        m.write(0x101, 1, 0x00);
        assert_eq!(m.read_u32(0x100), 0xFFFF_00FF);
    }

    #[test]
    fn size_zero_and_oversize_are_safe() {
        let mut m = Memory::new();
        m.write(0x100, 0, 0x42);
        assert_eq!(m.read_u32(0x100), 0);
        m.write(0x100, 7, 0x1234_5678);
        assert_eq!(m.read(0x100, 7), 0x1234_5678);
    }

    #[test]
    fn program_loading_places_segments() {
        use itr_isa::asm::assemble;
        let p = assemble(".data\nx: .word 99\n.text\nmain:\n halt\n").unwrap();
        let m = Memory::with_program(&p);
        assert_eq!(m.read_u32(p.symbol("x").unwrap()), 99);
        assert_ne!(m.read_u32(p.text_base()), 0, "halt instruction present");
    }
}
