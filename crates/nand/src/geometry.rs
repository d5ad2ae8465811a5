//! NAND geometry: blocks (erase granule) of pages (program/read granule).

use core::fmt;

/// Index of one NAND block — the erase granule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(u32);

impl BlockAddr {
    /// Creates a block address.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        Self(index)
    }

    /// The linear block index.
    #[must_use]
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk#{}", self.0)
    }
}

/// A page within a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageAddr {
    /// Containing block.
    pub block: BlockAddr,
    /// Page index within the block.
    pub page: u32,
}

impl PageAddr {
    /// Creates a page address.
    #[must_use]
    pub const fn new(block: BlockAddr, page: u32) -> Self {
        Self { block, page }
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/pg#{}", self.block, self.page)
    }
}

/// Shape of a NAND device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NandGeometry {
    blocks: u32,
    pages_per_block: u32,
    bytes_per_page: u32,
}

impl NandGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(blocks: u32, pages_per_block: u32, bytes_per_page: u32) -> Self {
        assert!(
            blocks > 0 && pages_per_block > 0 && bytes_per_page > 0,
            "all NAND dimensions must be non-zero"
        );
        Self {
            blocks,
            pages_per_block,
            bytes_per_page,
        }
    }

    /// A deliberately tiny layout for fast tests: 512-byte pages, 4 pages
    /// per block (one block = 16 Kib of cells).
    #[must_use]
    pub fn tiny() -> Self {
        Self::new(4, 4, 512)
    }

    /// Number of blocks.
    #[must_use]
    pub const fn blocks(&self) -> u32 {
        self.blocks
    }

    /// Pages per block.
    #[must_use]
    pub const fn pages_per_block(&self) -> u32 {
        self.pages_per_block
    }

    /// Bytes per page.
    #[must_use]
    pub const fn bytes_per_page(&self) -> u32 {
        self.bytes_per_page
    }

    /// Cells (bits) per page.
    #[must_use]
    pub const fn cells_per_page(&self) -> usize {
        self.bytes_per_page as usize * 8
    }

    /// Cells per block.
    #[must_use]
    pub const fn cells_per_block(&self) -> usize {
        self.cells_per_page() * self.pages_per_block as usize
    }

    /// Global cell index of bit `bit` of `page`.
    #[must_use]
    pub fn cell_index(&self, page: PageAddr, bit: usize) -> u64 {
        debug_assert!(bit < self.cells_per_page());
        (page.block.index() as u64 * self.pages_per_block as u64 + page.page as u64)
            * self.cells_per_page() as u64
            + bit as u64
    }
}

impl fmt::Display for NandGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} blocks x {} pages x {} B",
            self.blocks, self.pages_per_block, self.bytes_per_page
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_block_shape() {
        let g = NandGeometry::new(64, 32, 512);
        assert_eq!(g.cells_per_page(), 4096);
        assert_eq!(g.cells_per_block(), 4096 * 32);
    }

    #[test]
    fn tiny_shape() {
        let g = NandGeometry::tiny();
        assert_eq!(g.blocks(), 4);
        assert_eq!(g.cells_per_block(), 16_384);
    }

    #[test]
    fn cell_indices_are_disjoint_across_pages() {
        let g = NandGeometry::tiny();
        let a = g.cell_index(PageAddr::new(BlockAddr::new(0), 0), 4095);
        let b = g.cell_index(PageAddr::new(BlockAddr::new(0), 1), 0);
        assert_eq!(b, a + 1);
        let c = g.cell_index(PageAddr::new(BlockAddr::new(1), 0), 0);
        assert_eq!(c, g.cells_per_block() as u64);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = NandGeometry::new(0, 32, 512);
    }

    #[test]
    fn display() {
        assert_eq!(
            NandGeometry::tiny().to_string(),
            "4 blocks x 4 pages x 512 B"
        );
        assert_eq!(
            PageAddr::new(BlockAddr::new(2), 3).to_string(),
            "blk#2/pg#3"
        );
    }
}
