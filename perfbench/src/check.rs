//! Output checks shared by the workloads.

use mim::core::SplitMix64;
use mim::isa::Program;
use mim::trace::Trace;

/// FNV-1a over bytes: the report digest.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Report digests recorded per (workload, seed), one
/// `<workload> <seed> <hex digest>` line each.
pub struct Digests(Vec<(String, u64, u64)>);

impl Digests {
    pub fn load() -> Digests {
        Digests::parse(include_str!("../digests.txt"))
    }

    fn parse(text: &str) -> Digests {
        let rows = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                let mut f = l.split_whitespace();
                let (Some(w), Some(s), Some(d)) = (f.next(), f.next(), f.next()) else {
                    panic!("malformed digest line `{l}`");
                };
                let seed = s.parse().expect("digest seed is an integer");
                let digest = u64::from_str_radix(d, 16).expect("digest is hex");
                (w.to_string(), seed, digest)
            })
            .collect();
        Digests(rows)
    }

    /// Compares a report digest with the one recorded for the seed. Seeds
    /// without a recorded digest pass; the run prints its digest instead.
    pub fn verify(&self, workload: &str, seed: u64, digest: u64) -> Result<(), String> {
        match self.0.iter().find(|(w, s, _)| w == workload && *s == seed) {
            Some((_, _, d)) if *d != digest => Err(format!(
                "report digest {digest:016x} differs from the recorded {d:016x} for seed {seed}"
            )),
            _ => Ok(()),
        }
    }
}

/// Indices of the programs whose recorded traces a run checks against the
/// interpreter: two, chosen by the seed.
pub fn oracle_sample(seed: u64, programs: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ 0x0_4ac1e);
    let a = rng.below(programs);
    let b = (a + 1 + rng.below(programs - 1)) % programs;
    vec![a, b]
}

/// The block-compiled recording must equal the per-step interpreter's.
pub fn trace_matches_interpreter(program: &Program) -> Result<(), String> {
    let block = Trace::record(program, None).map_err(|e| e.to_string())?;
    let oracle = Trace::record_interpreted(program, None).map_err(|e| e.to_string())?;
    if block.to_bytes() == oracle.to_bytes() {
        Ok(())
    } else {
        Err("recorded trace differs from the interpreter oracle".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_verify_only_recorded_seeds() {
        let d = Digests::parse("# comment\nexplore 1 00000000000000ff\n");
        assert!(d.verify("explore", 1, 0xff).is_ok());
        assert!(d.verify("explore", 1, 0xfe).is_err());
        assert!(d.verify("explore", 2, 0xfe).is_ok());
        assert!(d.verify("validate", 1, 0xfe).is_ok());
    }

    #[test]
    fn oracle_sample_is_two_distinct_seeded_indices() {
        for seed in 0..50 {
            let s = oracle_sample(seed, 25);
            assert_ne!(s[0], s[1]);
            assert!(s.iter().all(|&i| i < 25));
            assert_eq!(s, oracle_sample(seed, 25));
        }
    }
}
