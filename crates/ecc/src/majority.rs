//! Majority voting primitives.
//!
//! Used in two places by the Flashmark procedures: across the N repeated
//! reads of `AnalyzeSegment` (Fig. 3) and across watermark replicas
//! (Fig. 10).

/// An incremental majority-vote accumulator with soft information.
///
/// # Example
///
/// ```
/// use flashmark_ecc::MajorityVote;
/// let mut v = MajorityVote::new();
/// v.push(true);
/// v.push(true);
/// v.push(false);
/// assert!(v.winner());
/// assert_eq!(v.margin(), 1);
/// assert!(!v.is_unanimous());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MajorityVote {
    ones: usize,
    total: usize,
}

impl MajorityVote {
    /// An empty tally.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a vote.
    pub fn push(&mut self, vote: bool) {
        self.ones += usize::from(vote);
        self.total += 1;
    }

    /// Current winner (`false` on an exact tie or an empty tally).
    #[must_use]
    pub fn winner(&self) -> bool {
        2 * self.ones > self.total
    }

    /// Votes for `true`.
    #[must_use]
    pub fn ones(&self) -> usize {
        self.ones
    }

    /// Total votes.
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Absolute margin between winner and loser counts.
    #[must_use]
    pub fn margin(&self) -> usize {
        let zeros = self.total - self.ones;
        self.ones.abs_diff(zeros)
    }

    /// All votes agree (and there is at least one vote).
    #[must_use]
    pub fn is_unanimous(&self) -> bool {
        self.total > 0 && (self.ones == 0 || self.ones == self.total)
    }
}

impl FromIterator<bool> for MajorityVote {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut v = Self::new();
        for b in iter {
            v.push(b);
        }
        v
    }
}

impl Extend<bool> for MajorityVote {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn majority(votes: &[bool]) -> bool {
        votes.iter().copied().collect::<MajorityVote>().winner()
    }

    #[test]
    fn simple_majorities() {
        assert!(majority(&[true, true, false]));
        assert!(!majority(&[true, false, false]));
        assert!(majority(&[true]));
        assert!(!majority(&[]));
    }

    #[test]
    fn even_tie_goes_false() {
        assert!(!majority(&[true, false]));
    }

    #[test]
    fn accumulator_counts_votes() {
        let votes = [true, false, true, true, false];
        let acc: MajorityVote = votes.iter().copied().collect();
        assert!(acc.winner());
        assert_eq!(acc.ones(), 3);
        assert_eq!(acc.total(), 5);
        assert_eq!(acc.margin(), 1);
    }

    #[test]
    fn unanimity_needs_every_vote() {
        let acc: MajorityVote = [true, true, true].into_iter().collect();
        assert!(acc.is_unanimous());
        let mixed: MajorityVote = [true, false, false].into_iter().collect();
        assert!(!mixed.is_unanimous());
        assert!(!MajorityVote::new().is_unanimous());
    }

    #[test]
    fn extend_accumulates() {
        let mut acc = MajorityVote::new();
        acc.extend([true, true]);
        acc.extend([false]);
        assert!(acc.winner());
        assert_eq!(acc.total(), 3);
    }
}
