//! Seeded input generation. Every input of every workload is a pure
//! function of the workload seed; the tool chain only ever sees the
//! generated AADL text, job specs and traces.
//!
//! Generated systems are drawn *stratified*: each slot of a workload asks
//! for a fixed shape (thread count and hyper-period for the sweep, port
//! kind for the open threads) and rejection-samples
//! [`SystemSpec::generate`] until a draw has it. The mix of shapes, and
//! with it the cost of a run, is then the same for every seed, so the
//! spread between runs with different seeds measures the program, not the
//! draw.

use polyvopr::gen::SystemSpec;

/// SplitMix64 finaliser: a well-mixed 64-bit value from `(seed, stream,
/// index)`.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(seed: u64, stream: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, stream, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Processor utilisation of a spec, from the spec alone.
fn utilisation(spec: &SystemSpec) -> f64 {
    spec.threads
        .iter()
        .map(|t| t.wcet_ms as f64 / t.period_ms as f64)
        .sum()
}

/// Hyper-period of a spec (the period menu is harmonic, so it is the
/// largest period).
pub fn hyperperiod(spec: &SystemSpec) -> u64 {
    spec.threads.iter().map(|t| t.period_ms).max().unwrap_or(0)
}

/// Draws `SystemSpec::generate` on the `(seed, stream, slot)` sequence
/// until `accept` holds. Systems with utilisation above 1 are never
/// accepted: they cannot be scheduled, and the spec alone says so.
fn draw(
    seed: u64,
    stream: u64,
    slot: u64,
    max_threads: usize,
    accept: impl Fn(&SystemSpec) -> bool,
) -> SystemSpec {
    for attempt in 0..1_000_000u64 {
        let spec = SystemSpec::generate(
            mix(
                seed,
                stream,
                slot.wrapping_mul(1 << 20).wrapping_add(attempt),
            ),
            max_threads,
            None,
        );
        if utilisation(&spec) <= 1.0 && accept(&spec) {
            return spec;
        }
    }
    unreachable!("every stratum of the generator is reachable within a million draws")
}

/// Thread counts and hyper-periods the sweep cycles through, one stratum
/// per system index.
const SWEEP_STRATA: [(usize, u64); 8] = [
    (2, 16),
    (3, 32),
    (4, 16),
    (5, 32),
    (2, 32),
    (3, 16),
    (4, 32),
    (5, 16),
];

/// The `index`-th system of the service sweep: a wired system (at least one
/// event-port connection, so the product and its lockstep reference run)
/// of the stratum's thread count and hyper-period. Each job runs with one
/// verification worker: the daemon's pool supplies the parallelism.
pub fn sweep_system(seed: u64, index: u64) -> SystemSpec {
    let (threads, hp) = SWEEP_STRATA[(index % SWEEP_STRATA.len() as u64) as usize];
    let mut spec = draw(seed, 1, index, threads, |s| {
        s.threads.len() == threads && hyperperiod(s) == hp && !s.connections.is_empty()
    });
    spec.workers = 1;
    spec
}

/// Which event ports a thread has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PortKind {
    OutOnly,
    InOnly,
    Both,
}

impl PortKind {
    fn of(thread: usize, spec: &SystemSpec) -> Option<Self> {
        let out = spec.connections.iter().any(|c| c.from == thread);
        let inp = spec.connections.iter().any(|c| c.to == thread);
        match (out, inp) {
            (true, false) => Some(PortKind::OutOnly),
            (false, true) => Some(PortKind::InOnly),
            (true, true) => Some(PortKind::Both),
            (false, false) => None,
        }
    }
}

/// Port kinds of the generated open threads: two senders, two receivers
/// and four relays (a relay both receives and sends, so its free input
/// space is the widest of the three).
const OPEN_THREAD_KINDS: [PortKind; 8] = [
    PortKind::OutOnly,
    PortKind::InOnly,
    PortKind::Both,
    PortKind::Both,
    PortKind::OutOnly,
    PortKind::InOnly,
    PortKind::Both,
    PortKind::Both,
];

/// One generated system per open-thread slot, with the index of a thread
/// of the slot's port kind.
pub fn open_thread_systems(seed: u64) -> Vec<(SystemSpec, usize)> {
    OPEN_THREAD_KINDS
        .iter()
        .enumerate()
        .map(|(slot, &kind)| {
            let spec = draw(seed, 2, slot as u64, 5, |s| {
                (0..s.threads.len()).any(|t| PortKind::of(t, s) == Some(kind))
            });
            let thread = (0..spec.threads.len())
                .find(|&t| PortKind::of(t, &spec) == Some(kind))
                .expect("the draw was accepted for this kind");
            (spec, thread)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_function_of_the_seed() {
        assert_eq!(sweep_system(7, 3), sweep_system(7, 3));
        assert_ne!(sweep_system(7, 3), sweep_system(8, 3));
        assert_eq!(open_thread_systems(7), open_thread_systems(7));
        assert_eq!(permutation(7, 0, 12), permutation(7, 0, 12));
    }

    #[test]
    fn sweep_systems_follow_their_stratum() {
        for index in 0..16 {
            let spec = sweep_system(11, index);
            let (threads, hp) = SWEEP_STRATA[index as usize % SWEEP_STRATA.len()];
            assert_eq!(spec.threads.len(), threads);
            assert_eq!(hyperperiod(&spec), hp);
            assert!(!spec.connections.is_empty());
            assert!(utilisation(&spec) <= 1.0);
        }
    }

    #[test]
    fn permutations_are_permutations() {
        let mut p = permutation(3, 1, 20);
        p.sort_unstable();
        assert_eq!(p, (0..20).collect::<Vec<_>>());
    }
}
