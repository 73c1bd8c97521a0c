//! Canonical execution states of a flat SIGNAL process under exploration.
//!
//! A state is the complete information needed to continue an execution:
//! the memory of every `delay`/`cell` operator, the phase of the scheduler
//! trace driving the inputs (0 in free-input exploration), and the monitor
//! registers of the properties being checked (one register per temporal
//! operator of each compiled LTL monitor — see
//! [`crate::monitor::LtlMonitor`]). States are
//! hashed through a canonical byte encoding ([`StateKey`]) so that real
//! values hash by bit pattern and the seen-set needs no floating-point `Eq`.
//!
//! The exploration engine does not pass [`StateKey`] values around: keys
//! are *interned*. A [`StateInterner`] is a sharded, append-only arena of
//! key bytes mapping each distinct encoding to a dense `u32` id plus one
//! `Copy` payload (the engine stores its parent link there), so the
//! frontier, the seen-set and the parent tree all reduce to `u32`s. A
//! [`KeyCodec`] produces successor encodings incrementally: it keeps the
//! parent's encoding and per-slot hashes, re-encodes only the memory slots
//! that actually changed, and patches the state hash slot-wise instead of
//! rehashing the whole key.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use signal_moc::value::Value;

/// Monitor register value meaning "no response deadline pending".
pub const MONITOR_IDLE: u32 = u32::MAX;

/// One explored state of the product (process memory × scheduler phase ×
/// property monitors).
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    /// Memory of every `delay`/`cell` operator, in evaluator pre-order.
    pub memory: Vec<Value>,
    /// Index of the next step in the scheduled input trace (always 0 when
    /// inputs are enumerated freely).
    pub phase: u32,
    /// Concatenated registers of the compiled property monitors (for a
    /// deadline register, [`MONITOR_IDLE`] means no trigger is pending).
    pub monitors: Vec<u32>,
}

impl State {
    /// The canonical hashable key of this state.
    pub fn key(&self) -> StateKey {
        let mut bytes = Vec::with_capacity(8 + self.monitors.len() * 4 + self.memory.len() * 9);
        bytes.extend_from_slice(&self.phase.to_le_bytes());
        for m in &self.monitors {
            bytes.extend_from_slice(&m.to_le_bytes());
        }
        for value in &self.memory {
            encode_value(value, &mut bytes);
        }
        StateKey(bytes)
    }
}

/// Canonical byte encoding of a [`State`], used as the key of the sharded
/// seen-set. Two states compare equal iff their phases, monitors and
/// operator memories are bit-identical (reals compare by IEEE 754 bits).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StateKey(Vec<u8>);

impl StateKey {
    /// Length of the canonical encoding in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The canonical encoding itself (used for deterministic tie-breaking
    /// between equal-depth exploration edges).
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Returns `true` when the encoding is empty (never the case for keys
    /// produced by [`State::key`]).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

pub(crate) fn encode_value(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Event => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Real(r) => {
            out.push(3);
            out.extend_from_slice(&r.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            out.push(4);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// Decodes one value of the canonical encoding, advancing `pos`.
fn decode_value(bytes: &[u8], pos: &mut usize) -> Value {
    let tag = bytes[*pos];
    *pos += 1;
    match tag {
        0 => Value::Event,
        1 => {
            let b = bytes[*pos] != 0;
            *pos += 1;
            Value::Bool(b)
        }
        2 => {
            let v = i64::from_le_bytes(bytes[*pos..*pos + 8].try_into().expect("8 bytes"));
            *pos += 8;
            Value::Int(v)
        }
        3 => {
            let v = u64::from_le_bytes(bytes[*pos..*pos + 8].try_into().expect("8 bytes"));
            *pos += 8;
            Value::Real(f64::from_bits(v))
        }
        4 => {
            let len =
                u32::from_le_bytes(bytes[*pos..*pos + 4].try_into().expect("4 bytes")) as usize;
            *pos += 4;
            let s = std::str::from_utf8(&bytes[*pos..*pos + len]).expect("encoded UTF-8");
            *pos += len;
            Value::Text(s.to_string())
        }
        other => unreachable!("corrupt state key (tag {other})"),
    }
}

/// Two values are key-equal iff their canonical encodings are identical:
/// reals compare by IEEE 754 bit pattern (so `0.0` and `-0.0` stay distinct
/// states, exactly as [`State::key`] encodes them), everything else by
/// structural equality.
fn value_bits_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Real(x), Value::Real(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// FNV-1a over a byte slice: tiny, deterministic across runs and
/// platforms.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Position tag of the head (phase + monitors) in the slot-wise hash.
const POS_HEAD: u64 = u64::MAX;

/// Finalising mixer binding a slot hash to its position, so the state hash
/// can be a *wrapping sum* of per-slot terms: patching slot `i` subtracts
/// the old term and adds the new one without touching the other slots.
fn mix(h: u64, pos: u64) -> u64 {
    let mut x = h ^ pos.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Incremental encoder/hasher of successor states.
///
/// Seed the codec with a parent state (from its interned key bytes, or from
/// a [`State`] for the initial state), then call [`KeyCodec::successor`]
/// with the successor's memory: slots that compare bit-equal to the parent
/// are copied byte-for-byte from the parent encoding and their hash terms
/// are reused; only changed slots are re-encoded and re-hashed. The
/// produced bytes are always identical to what [`State::key`] would encode,
/// and the produced hash depends only on the bytes — a patched hash equals
/// a freshly seeded one.
#[derive(Debug, Clone, Default)]
pub struct KeyCodec {
    /// The parent's full canonical encoding.
    parent: Vec<u8>,
    /// The parent's decoded memory, slot by slot.
    parent_memory: Vec<Value>,
    /// Byte range of each memory slot inside `parent`.
    slot_ranges: Vec<(u32, u32)>,
    /// Position-mixed hash term of each slot.
    slot_mixes: Vec<u64>,
    /// Wrapping sum of `slot_mixes`.
    slot_sum: u64,
    /// Successor encoding scratch (owned so callers can borrow it).
    out: Vec<u8>,
}

impl KeyCodec {
    /// A fresh codec; seed it before producing successors.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds the codec from a full [`State`], returning the state's hash
    /// (the encoding itself is available as [`KeyCodec::parent_key`]).
    pub fn seed_state(&mut self, state: &State) -> u64 {
        self.parent.clear();
        self.parent.extend_from_slice(&state.phase.to_le_bytes());
        for m in &state.monitors {
            self.parent.extend_from_slice(&m.to_le_bytes());
        }
        let head_mix = mix(fnv(&self.parent), POS_HEAD);
        self.parent_memory.clear();
        self.parent_memory.extend_from_slice(&state.memory);
        self.slot_ranges.clear();
        self.slot_mixes.clear();
        self.slot_sum = 0;
        for (i, value) in state.memory.iter().enumerate() {
            let start = self.parent.len();
            encode_value(value, &mut self.parent);
            self.slot_ranges
                .push((start as u32, self.parent.len() as u32));
            let m = mix(fnv(&self.parent[start..]), i as u64);
            self.slot_mixes.push(m);
            self.slot_sum = self.slot_sum.wrapping_add(m);
        }
        head_mix.wrapping_add(self.slot_sum)
    }

    /// Seeds the codec from an interned key encoding, decoding the phase
    /// (returned), the monitor registers (into `monitors`, cleared first)
    /// and the memory (available as [`KeyCodec::parent_memory`]).
    pub fn seed_key(&mut self, key: &[u8], monitor_count: usize, monitors: &mut Vec<u32>) -> u32 {
        self.parent.clear();
        self.parent.extend_from_slice(key);
        let phase = u32::from_le_bytes(key[0..4].try_into().expect("phase bytes"));
        monitors.clear();
        let mut pos = 4usize;
        for _ in 0..monitor_count {
            monitors.push(u32::from_le_bytes(
                key[pos..pos + 4].try_into().expect("monitor bytes"),
            ));
            pos += 4;
        }
        self.parent_memory.clear();
        self.slot_ranges.clear();
        self.slot_mixes.clear();
        self.slot_sum = 0;
        let mut i = 0usize;
        while pos < key.len() {
            let start = pos;
            self.parent_memory.push(decode_value(key, &mut pos));
            self.slot_ranges.push((start as u32, pos as u32));
            let m = mix(fnv(&key[start..pos]), i as u64);
            self.slot_mixes.push(m);
            self.slot_sum = self.slot_sum.wrapping_add(m);
            i += 1;
        }
        phase
    }

    /// The parent's full canonical encoding (what [`State::key`] would
    /// produce for the seeded state).
    pub fn parent_key(&self) -> &[u8] {
        &self.parent
    }

    /// The parent's decoded operator memory.
    pub fn parent_memory(&self) -> &[Value] {
        &self.parent_memory
    }

    /// Encodes and hashes a successor of the seeded parent, patching only
    /// the memory slots that differ (bit-wise) from the parent.
    ///
    /// # Panics
    ///
    /// Panics when `memory.len()` differs from the seeded slot count.
    pub fn successor(&mut self, memory: &[Value], phase: u32, monitors: &[u32]) -> (u64, &[u8]) {
        assert_eq!(
            memory.len(),
            self.slot_ranges.len(),
            "successor memory width differs from the seeded parent"
        );
        self.out.clear();
        self.out.extend_from_slice(&phase.to_le_bytes());
        for m in monitors {
            self.out.extend_from_slice(&m.to_le_bytes());
        }
        let head_mix = mix(fnv(&self.out), POS_HEAD);
        let mut sum = self.slot_sum;
        for (i, value) in memory.iter().enumerate() {
            if value_bits_eq(value, &self.parent_memory[i]) {
                let (start, end) = self.slot_ranges[i];
                self.out
                    .extend_from_slice(&self.parent[start as usize..end as usize]);
            } else {
                let start = self.out.len();
                encode_value(value, &mut self.out);
                let m = mix(fnv(&self.out[start..]), i as u64);
                sum = sum.wrapping_sub(self.slot_mixes[i]).wrapping_add(m);
            }
        }
        (head_mix.wrapping_add(sum), &self.out)
    }
}

/// Sentinel for an empty open-addressing slot.
const EMPTY_SLOT: u32 = u32::MAX;

/// One shard of a [`StateInterner`]: an append-only byte arena holding the
/// key encodings back to back, parallel per-entry metadata, and an
/// open-addressing table mapping hashes to local entry indices.
#[derive(Debug)]
struct InternShard<P> {
    arena: Vec<u8>,
    /// `(start, end)` byte range of each entry in `arena`.
    spans: Vec<(u32, u32)>,
    hashes: Vec<u64>,
    payloads: Vec<P>,
    /// Open-addressing table of local indices (linear probing, grown at
    /// 50% load).
    table: Vec<u32>,
}

impl<P> InternShard<P> {
    fn with_capacity(entries: usize) -> Self {
        let table = (entries.max(4) * 2).next_power_of_two();
        Self {
            arena: Vec::new(),
            spans: Vec::with_capacity(entries),
            hashes: Vec::with_capacity(entries),
            payloads: Vec::with_capacity(entries),
            table: vec![EMPTY_SLOT; table],
        }
    }

    fn key(&self, local: usize) -> &[u8] {
        let (start, end) = self.spans[local];
        &self.arena[start as usize..end as usize]
    }

    fn grow(&mut self) {
        let mut table = vec![EMPTY_SLOT; self.table.len() * 2];
        let mask = table.len() - 1;
        for (local, &hash) in self.hashes.iter().enumerate() {
            let mut slot = (hash as usize) & mask;
            while table[slot] != EMPTY_SLOT {
                slot = (slot + 1) & mask;
            }
            table[slot] = local as u32;
        }
        self.table = table;
    }
}

/// A sharded, append-only intern table mapping canonical state encodings to
/// dense `u32` ids, each carrying one `Copy` payload (the exploration
/// engine stores its parent link there).
///
/// Ids pack the shard index in the low bits and the within-shard index in
/// the high bits; they are stable for the lifetime of the interner but
/// *allocation-ordered*, so nothing deterministic may be derived from their
/// numeric value under concurrent interning — the engine only ever compares
/// key bytes, never ids.
#[derive(Debug)]
pub struct StateInterner<P> {
    shards: Vec<Mutex<InternShard<P>>>,
    shard_bits: u32,
    len: AtomicUsize,
}

impl<P: Copy> StateInterner<P> {
    /// An interner with `shards` shards (rounded up to a power of two) and
    /// room for about `capacity` states before any rehash.
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard = capacity.div_ceil(shards).max(4);
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(InternShard::with_capacity(per_shard)))
                .collect(),
            shard_bits: shards.trailing_zeros(),
            len: AtomicUsize::new(0),
        }
    }

    /// Number of distinct interned states.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Returns `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of canonical key encodings held in the shard arenas —
    /// the interner's memory high-water mark for telemetry. Locks each
    /// shard briefly; intended for per-level gauge reads, not hot paths.
    pub fn arena_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("interner shard poisoned").arena.len())
            .sum()
    }

    fn locate(&self, id: u32) -> (&Mutex<InternShard<P>>, usize) {
        let mask = (1u32 << self.shard_bits) - 1;
        (
            &self.shards[(id & mask) as usize],
            (id >> self.shard_bits) as usize,
        )
    }

    /// Interns `key` under `hash`. Returns the id and `None` when the key
    /// was fresh (its payload is then `payload()`), or the id and a copy of
    /// the existing payload when the key was already interned.
    pub fn intern(&self, hash: u64, key: &[u8], payload: impl FnOnce() -> P) -> (u32, Option<P>) {
        let shard_idx = ((hash >> 32) as usize) & (self.shards.len() - 1);
        let mut shard = self.shards[shard_idx]
            .lock()
            .expect("interner shard poisoned");
        let mask = shard.table.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            let entry = shard.table[slot];
            if entry == EMPTY_SLOT {
                break;
            }
            let local = entry as usize;
            if shard.hashes[local] == hash && shard.key(local) == key {
                let id = ((local as u32) << self.shard_bits) | shard_idx as u32;
                return (id, Some(shard.payloads[local]));
            }
            slot = (slot + 1) & mask;
        }
        let local = shard.spans.len();
        let start = shard.arena.len() as u32;
        shard.arena.extend_from_slice(key);
        let end = shard.arena.len() as u32;
        shard.spans.push((start, end));
        shard.hashes.push(hash);
        shard.payloads.push(payload());
        shard.table[slot] = local as u32;
        if (local + 1) * 2 >= shard.table.len() {
            shard.grow();
        }
        self.len.fetch_add(1, Ordering::Relaxed);
        (((local as u32) << self.shard_bits) | shard_idx as u32, None)
    }

    /// A copy of the payload of an interned state.
    pub fn payload(&self, id: u32) -> P {
        let (shard, local) = self.locate(id);
        shard.lock().expect("interner shard poisoned").payloads[local]
    }

    /// Replaces the payload of an interned state (the engine's
    /// deterministic parent-link tie-break).
    pub fn set_payload(&self, id: u32, payload: P) {
        let (shard, local) = self.locate(id);
        shard.lock().expect("interner shard poisoned").payloads[local] = payload;
    }

    /// Runs `f` over the key bytes of an interned state. The shard stays
    /// locked for the duration of `f`; do not call back into the interner.
    pub fn with_key<R>(&self, id: u32, f: impl FnOnce(&[u8]) -> R) -> R {
        let (shard, local) = self.locate(id);
        f(shard.lock().expect("interner shard poisoned").key(local))
    }

    /// Copies the key bytes of an interned state into `out` (cleared
    /// first).
    pub fn copy_key(&self, id: u32, out: &mut Vec<u8>) {
        out.clear();
        self.with_key(id, |key| out.extend_from_slice(key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(memory: Vec<Value>, phase: u32, monitors: Vec<u32>) -> State {
        State {
            memory,
            phase,
            monitors,
        }
    }

    #[test]
    fn identical_states_share_a_key() {
        let a = state(
            vec![Value::Int(3), Value::Bool(true)],
            2,
            vec![MONITOR_IDLE],
        );
        let b = state(
            vec![Value::Int(3), Value::Bool(true)],
            2,
            vec![MONITOR_IDLE],
        );
        assert_eq!(a.key(), b.key());
    }

    #[test]
    fn phase_memory_and_monitors_discriminate() {
        let base = state(vec![Value::Int(3)], 0, vec![MONITOR_IDLE]);
        assert_ne!(
            base.key(),
            state(vec![Value::Int(4)], 0, vec![MONITOR_IDLE]).key()
        );
        assert_ne!(
            base.key(),
            state(vec![Value::Int(3)], 1, vec![MONITOR_IDLE]).key()
        );
        assert_ne!(base.key(), state(vec![Value::Int(3)], 0, vec![2]).key());
    }

    #[test]
    fn reals_compare_by_bits_and_texts_by_content() {
        let a = state(vec![Value::Real(0.5)], 0, vec![]);
        let b = state(vec![Value::Real(0.5)], 0, vec![]);
        let c = state(vec![Value::Real(-0.5)], 0, vec![]);
        assert_eq!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
        let t = state(vec![Value::Text("ab".into())], 0, vec![]);
        let u = state(vec![Value::Text("ab".into())], 0, vec![]);
        assert_eq!(t.key(), u.key());
        assert!(!t.key().is_empty());
        assert!(t.key().len() > 4);
    }

    #[test]
    fn value_kinds_do_not_collide() {
        // Bool(false) vs Int(0) vs Event must all encode differently.
        let kinds = [
            state(vec![Value::Event], 0, vec![]),
            state(vec![Value::Bool(false)], 0, vec![]),
            state(vec![Value::Int(0)], 0, vec![]),
            state(vec![Value::Real(0.0)], 0, vec![]),
            state(vec![Value::Text(String::new())], 0, vec![]),
        ];
        for (i, a) in kinds.iter().enumerate() {
            for b in &kinds[i + 1..] {
                assert_ne!(a.key(), b.key());
            }
        }
    }

    #[test]
    fn codec_seed_matches_full_encoding() {
        let s = state(
            vec![
                Value::Int(7),
                Value::Bool(true),
                Value::Real(1.5),
                Value::Text("hi".into()),
                Value::Event,
            ],
            3,
            vec![MONITOR_IDLE, 2],
        );
        let mut codec = KeyCodec::new();
        codec.seed_state(&s);
        assert_eq!(codec.parent_key(), s.key().as_bytes());
        assert_eq!(codec.parent_memory(), s.memory.as_slice());
    }

    #[test]
    fn codec_successor_bytes_and_hash_match_fresh_seed() {
        let parent = state(
            vec![Value::Int(7), Value::Bool(true), Value::Real(0.5)],
            1,
            vec![MONITOR_IDLE],
        );
        let child = state(
            vec![Value::Int(8), Value::Bool(true), Value::Real(0.5)],
            2,
            vec![4],
        );
        let mut codec = KeyCodec::new();
        codec.seed_state(&parent);
        let (hash, bytes) = codec.successor(&child.memory, child.phase, &child.monitors);
        assert_eq!(bytes, child.key().as_bytes());
        let mut fresh = KeyCodec::new();
        assert_eq!(hash, fresh.seed_state(&child));
    }

    #[test]
    fn codec_distinguishes_negative_zero_successors() {
        let parent = state(vec![Value::Real(0.0)], 0, vec![]);
        let mut codec = KeyCodec::new();
        codec.seed_state(&parent);
        let (hash_pos, bytes_pos) = codec.successor(&[Value::Real(0.0)], 0, &[]);
        let bytes_pos = bytes_pos.to_vec();
        let (hash_neg, bytes_neg) = codec.successor(&[Value::Real(-0.0)], 0, &[]);
        assert_ne!(bytes_pos, bytes_neg);
        assert_ne!(hash_pos, hash_neg);
        assert_eq!(
            bytes_neg,
            state(vec![Value::Real(-0.0)], 0, vec![]).key().as_bytes()
        );
    }

    #[test]
    fn codec_round_trips_through_key_seeding() {
        let s = state(
            vec![Value::Int(-4), Value::Text("x".into()), Value::Bool(false)],
            5,
            vec![1, MONITOR_IDLE],
        );
        let mut codec = KeyCodec::new();
        let hash = codec.seed_state(&s);
        let key = codec.parent_key().to_vec();
        let mut reseeded = KeyCodec::new();
        let mut monitors = Vec::new();
        let phase = reseeded.seed_key(&key, s.monitors.len(), &mut monitors);
        assert_eq!(phase, s.phase);
        assert_eq!(monitors, s.monitors);
        assert_eq!(reseeded.parent_memory(), s.memory.as_slice());
        assert_eq!(reseeded.parent_key(), key.as_slice());
        // Identity successor reproduces the seeded hash.
        let (h, bytes) = reseeded.successor(&s.memory, s.phase, &s.monitors);
        assert_eq!(h, hash);
        assert_eq!(bytes, key.as_slice());
    }

    #[test]
    fn interner_dedups_and_reports_freshness() {
        let interner: StateInterner<u32> = StateInterner::new(4, 8);
        let (a, existing) = interner.intern(42, b"alpha", || 7);
        assert!(existing.is_none());
        let (b, existing) = interner.intern(42, b"alpha", || 99);
        assert_eq!(a, b);
        assert_eq!(existing, Some(7));
        let (c, existing) = interner.intern(42, b"beta", || 11);
        assert_ne!(a, c);
        assert!(existing.is_none());
        assert_eq!(interner.len(), 2);
        assert!(!interner.is_empty());
    }

    #[test]
    fn interner_payload_and_key_round_trip() {
        let interner: StateInterner<u32> = StateInterner::new(2, 4);
        let (id, _) = interner.intern(1234, b"some key bytes", || 5);
        assert_eq!(interner.payload(id), 5);
        interner.set_payload(id, 17);
        assert_eq!(interner.payload(id), 17);
        assert!(interner.with_key(id, |k| k == b"some key bytes"));
        let mut out = vec![0u8; 3];
        interner.copy_key(id, &mut out);
        assert_eq!(out, b"some key bytes");
    }

    #[test]
    fn interner_survives_rehash_growth() {
        let interner: StateInterner<usize> = StateInterner::new(1, 2);
        let mut ids = Vec::new();
        for i in 0..200usize {
            let key = format!("state-{i}");
            let (id, existing) = interner.intern(fnv(key.as_bytes()), key.as_bytes(), || i);
            assert!(existing.is_none());
            ids.push((id, key));
        }
        assert_eq!(interner.len(), 200);
        for (i, (id, key)) in ids.iter().enumerate() {
            assert_eq!(interner.payload(*id), i);
            assert!(interner.with_key(*id, |k| k == key.as_bytes()));
            let (again, existing) = interner.intern(fnv(key.as_bytes()), key.as_bytes(), || 0);
            assert_eq!(again, *id);
            assert_eq!(existing, Some(i));
        }
    }

    #[test]
    fn concurrent_interning_through_rehashes_keeps_ids_dense_and_unique() {
        // Two threads intern the same 300 keys in opposite orders into a
        // 2-shard interner sized for 4 states, so every shard rehashes
        // several times while the other thread races it.
        const KEYS: usize = 300;
        let interner: StateInterner<usize> = StateInterner::new(2, 4);
        let keys: Vec<String> = (0..KEYS).map(|i| format!("state-{i}")).collect();
        let start = std::sync::Barrier::new(2);
        let seen: Vec<Vec<u32>> = std::thread::scope(|scope| {
            let workers: Vec<_> = [false, true]
                .into_iter()
                .map(|reversed| {
                    let (interner, keys, start) = (&interner, &keys, &start);
                    scope.spawn(move || {
                        start.wait();
                        let mut ids = vec![0u32; KEYS];
                        let order: Vec<usize> = if reversed {
                            (0..KEYS).rev().collect()
                        } else {
                            (0..KEYS).collect()
                        };
                        for i in order {
                            let key = keys[i].as_bytes();
                            ids[i] = interner.intern(fnv(key), key, || i).0;
                        }
                        ids
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(seen[0], seen[1], "both threads agree on every id");
        assert_eq!(interner.len(), KEYS);

        // Unique ids, and within each shard the local indices are exactly
        // 0..n: nothing was lost or double-allocated during a rehash.
        let ids = &seen[0];
        let unique: std::collections::BTreeSet<u32> = ids.iter().copied().collect();
        assert_eq!(unique.len(), KEYS);
        for shard in 0..2u32 {
            let locals: Vec<u32> = unique
                .iter()
                .filter(|&&id| id & 1 == shard)
                .map(|&id| id >> 1)
                .collect();
            let dense: Vec<u32> = (0..locals.len() as u32).collect();
            assert_eq!(locals, dense, "shard {shard}");
        }

        let mut out = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            interner.copy_key(id, &mut out);
            assert_eq!(out, keys[i].as_bytes());
            assert_eq!(interner.payload(id), i);
        }
    }
}
