//! SLC NAND operation timing (typical datasheet values).

use flashmark_physics::Micros;

/// Operation durations of an SLC NAND part.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NandTimings {
    /// Page read (array → page register), `tR`.
    pub page_read: Micros,
    /// Page program, `tPROG`.
    pub page_program: Micros,
    /// Block erase, `tBERS`.
    pub block_erase: Micros,
    /// Erase-abort (reset) latency.
    pub abort_latency: Micros,
    /// Serial transfer of one byte over the 8-bit bus.
    pub byte_io: Micros,
}

impl NandTimings {
    /// Typical SLC small-block NAND timing.
    #[must_use]
    pub fn slc() -> Self {
        Self {
            page_read: Micros::new(25.0),
            page_program: Micros::new(200.0),
            block_erase: Micros::from_millis(2.0),
            abort_latency: Micros::new(5.0),
            byte_io: Micros::new(0.04),
        }
    }

    /// Full page read including transferring the data out.
    #[must_use]
    pub fn page_read_total(&self, bytes: usize) -> Micros {
        self.page_read + self.byte_io * bytes as f64
    }

    /// Full page program including transferring the data in.
    #[must_use]
    pub fn page_program_total(&self, bytes: usize) -> Micros {
        self.page_program + self.byte_io * bytes as f64
    }
}

impl Default for NandTimings {
    fn default() -> Self {
        Self::slc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nand_is_much_faster_to_erase_than_msp430_nor() {
        // tBERS 2 ms vs TERASE 25 ms: the paper's remark that stand-alone
        // parts would imprint far faster holds a fortiori for NAND.
        assert!(NandTimings::slc().block_erase.get() < 5_000.0);
    }

    #[test]
    fn totals_include_io() {
        let t = NandTimings::slc();
        assert!(t.page_read_total(512).get() > t.page_read.get());
        assert!(t.page_program_total(512).get() > t.page_program.get());
    }
}
