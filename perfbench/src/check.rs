//! Answer checks and the response-stream digest. Workloads call these
//! outside every timed section; a failed check fails the run.

use bcc_metric::NodeId;

/// Relative slack on the class bound: distances are compared as computed,
/// so this only absorbs printing-level rounding, never a real violation.
const BOUND_SLACK: f64 = 1e-9;

/// Checks one answered cluster: `exact_k` demands exactly that many
/// members (a full answer), otherwise between 1 and `max_k` (a budgeted
/// partial answer). Members must be distinct and live, and every pair
/// must lie within `l` on the label metric `dist`.
///
/// # Errors
///
/// A description of the first violation.
pub fn check_cluster(
    members: &[NodeId],
    exact_k: Option<usize>,
    max_k: usize,
    l: f64,
    is_live: impl Fn(NodeId) -> bool,
    dist: impl Fn(u32, u32) -> f64,
) -> Result<(), String> {
    match exact_k {
        Some(k) if members.len() != k => {
            return Err(format!("{} members for k = {k}", members.len()));
        }
        None if members.is_empty() || members.len() > max_k => {
            return Err(format!(
                "partial answer of {} members for k = {max_k}",
                members.len()
            ));
        }
        _ => {}
    }
    let mut ids: Vec<u32> = members.iter().map(|h| h.index() as u32).collect();
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return Err(format!("duplicate member in {ids:?}"));
    }
    if let Some(dead) = members.iter().find(|&&h| !is_live(h)) {
        return Err(format!("member {} is not live", dead.index()));
    }
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            let d = dist(a, b);
            if d > l * (1.0 + BOUND_SLACK) {
                return Err(format!("pair ({a}, {b}) at distance {d} exceeds bound {l}"));
            }
        }
    }
    Ok(())
}

/// FNV-1a over little-endian words: the response-stream digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds an optional member list in (length-prefixed; `None` is a
    /// distinct marker).
    pub fn cluster(&mut self, members: Option<&[NodeId]>) {
        match members {
            None => self.word(u64::MAX),
            Some(m) => {
                self.word(m.len() as u64);
                for h in m {
                    self.word(h.index() as u64);
                }
            }
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Counts checks run and collects the first failures.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks evaluated.
    pub run: u64,
    /// Failure descriptions (the first few are kept).
    pub failures: Vec<String>,
    /// Failures seen in total.
    pub failed: u64,
}

impl Checks {
    /// Records one check's result under `what`.
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.run += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(format!("{what}: {e}"));
            }
        }
    }

    /// Records an equality check between an answer and its reference.
    pub fn same<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: &T, want: &T) {
        let result = if got == want {
            Ok(())
        } else {
            Err(format!("got {got:?}, reference {want:?}"))
        };
        self.record(what, result);
    }

    /// Whether every check passed.
    pub fn ok(&self) -> bool {
        self.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[usize]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId::new(i)).collect()
    }

    /// Hosts on a line at unit spacing; everyone but host 9 is live.
    fn line_check(members: &[usize], exact: Option<usize>, l: f64) -> Result<(), String> {
        check_cluster(
            &ids(members),
            exact,
            exact.unwrap_or(4),
            l,
            |h| h.index() != 9,
            |a, b| (f64::from(a) - f64::from(b)).abs(),
        )
    }

    #[test]
    fn a_valid_cluster_passes() {
        line_check(&[3, 1, 2], Some(3), 2.0).unwrap();
        line_check(&[1, 2], None, 1.0).unwrap();
    }

    #[test]
    fn corrupted_answers_are_caught() {
        // Too far apart for the bound.
        assert!(line_check(&[1, 2, 5], Some(3), 2.0).is_err());
        // Duplicate member padding the size.
        assert!(line_check(&[1, 2, 2], Some(3), 2.0).is_err());
        // Wrong size.
        assert!(line_check(&[1, 2], Some(3), 2.0).is_err());
        // A dead member.
        assert!(line_check(&[8, 9, 7], Some(3), 2.0).is_err());
        // Empty partial answer.
        assert!(line_check(&[], None, 2.0).is_err());
    }

    #[test]
    fn digest_separates_absent_from_empty_and_order() {
        let mut a = Digest::default();
        a.cluster(None);
        let mut b = Digest::default();
        b.cluster(Some(&[]));
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.cluster(Some(&ids(&[1, 2])));
        let mut d = Digest::default();
        d.cluster(Some(&ids(&[2, 1])));
        assert_ne!(c, d);
    }

    #[test]
    fn checks_count_failures() {
        let mut c = Checks::default();
        c.same("eq", &1, &1);
        c.same("ne", &1, &2);
        c.record("err", Err("boom".into()));
        assert_eq!((c.run, c.failed), (3, 2));
        assert!(!c.ok());
        assert!(c.failures[0].starts_with("ne:"));
    }
}
