//! The KV table's public shapes.
//!
//! Software transparency is the point of the paper, so the KV layer does
//! nothing clever for persistence: the hash table — slot states, keys,
//! values, tombstones — lives *in* the persistent line array and is
//! mutated with plain [`crate::Engine::write_line`] calls, exactly as a
//! legacy in-memory store would mutate DRAM. Durability and crash
//! consistency come entirely from the engine's undo logging underneath;
//! recovery brings back the whole table (index included) at the persist
//! frontier with no KV-level replay.
//!
//! The slot layout lives in [`crate::slots`]; the one KV front-end is
//! `picl_serve::ServeKv`, which adds sessions, shard locks and the epoch
//! clock (one commit every N mutations).

pub use crate::slots::{MAX_KEY_BYTES, MAX_VALUE_BYTES};

/// Sorted `(key, value)` pairs as returned by [`crate::slots::scan`].
pub type KvPairs = Vec<(Vec<u8>, Vec<u8>)>;

// The slot table driven straight on an `Engine`, with the caller
// committing epochs, as a front-end does.
#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use picl_telemetry::Telemetry;

    use crate::engine::{Engine, EngineConfig, StoreError};
    use crate::layout::Geometry;
    use crate::persist::CountingMedium;
    use crate::slots::{self, Deletion, Lookup};

    fn cfg(lines: u32) -> EngineConfig {
        EngineConfig {
            lines,
            log_blocks: 32,
            ..EngineConfig::default()
        }
    }

    fn open(lines: u32) -> (Engine, Arc<CountingMedium>) {
        let g = Geometry {
            lines,
            log_blocks: 32,
        };
        let medium = Arc::new(CountingMedium::new(g.total_len()));
        let (engine, _) = Engine::open(Arc::clone(&medium) as _, cfg(lines), Telemetry::off())
            .expect("fresh store opens");
        (engine, medium)
    }

    /// Recovers what `medium` would hold after power failed now.
    fn reopen(medium: &CountingMedium, lines: u32) -> (Engine, u64) {
        let survivor = Arc::new(CountingMedium::from_image(medium.surviving_image()));
        let (engine, report) = Engine::open(survivor, cfg(lines), Telemetry::off()).unwrap();
        assert!(report.recovered);
        (engine, report.recovered_to)
    }

    fn get(engine: &Engine, key: &[u8]) -> Option<Vec<u8>> {
        match slots::lookup(engine, key).unwrap() {
            Lookup::Found { value, .. } => Some(value),
            Lookup::Missing { .. } => None,
            Lookup::Contended => panic!("torn record under an exclusive reader"),
        }
    }

    fn deleted(engine: &Engine, key: &[u8]) -> bool {
        matches!(
            slots::delete(engine, key).unwrap(),
            Deletion::Deleted { .. }
        )
    }

    #[test]
    fn put_get_delete_round_trip() {
        let (engine, _) = open(64);
        assert_eq!(get(&engine, b"missing"), None);
        slots::put(&engine, b"alpha", b"one").unwrap();
        slots::put(&engine, b"beta", b"two").unwrap();
        assert_eq!(get(&engine, b"alpha"), Some(b"one".to_vec()));
        slots::put(&engine, b"alpha", b"uno").unwrap();
        assert_eq!(get(&engine, b"alpha"), Some(b"uno".to_vec()));
        assert!(deleted(&engine, b"alpha"));
        assert_eq!(get(&engine, b"alpha"), None);
        assert!(!deleted(&engine, b"alpha"));
        assert_eq!(
            slots::scan(&engine).unwrap(),
            vec![(b"beta".to_vec(), b"two".to_vec())]
        );
    }

    #[test]
    fn epochs_commit_every_n_ops() {
        // A caller committing after every fourth put gets consecutive
        // epoch ids, and recovery lands on the last of them.
        let (engine, medium) = open(64);
        let mut commits = Vec::new();
        for i in 1..=12u8 {
            slots::put(&engine, format!("k{i}").as_bytes(), b"v").unwrap();
            if i % 4 == 0 {
                commits.push(engine.commit_epoch().unwrap());
            }
        }
        assert_eq!(commits, vec![1, 2, 3]);
        engine.close().unwrap();
        assert_eq!(reopen(&medium, 64).1, 3);
    }

    #[test]
    fn collisions_probe_and_tombstones_reuse() {
        // A 4-slot table forces collisions fast.
        let (engine, _) = open(4);
        for (k, v) in [(b"a", b"1"), (b"b", b"2"), (b"c", b"3")] {
            slots::put(&engine, k, v).unwrap();
        }
        assert_eq!(get(&engine, b"a"), Some(b"1".to_vec()));
        assert_eq!(get(&engine, b"b"), Some(b"2".to_vec()));
        assert!(deleted(&engine, b"b"));
        // c may live past b's tombstone; lookups must keep probing.
        assert_eq!(get(&engine, b"c"), Some(b"3".to_vec()));
        slots::put(&engine, b"d", b"4").unwrap();
        assert_eq!(get(&engine, b"d"), Some(b"4".to_vec()));
        // Full table rejects a fifth key.
        slots::put(&engine, b"e", b"5").unwrap();
        assert!(matches!(
            slots::put(&engine, b"f", b"6"),
            Err(StoreError::Invalid(_))
        ));
    }

    #[test]
    fn oversized_keys_and_values_rejected() {
        let (engine, _) = open(64);
        assert!(slots::put(&engine, &[b'k'; 29], b"v").is_err());
        assert!(slots::put(&engine, b"k", &[b'v'; 256]).is_err());
        assert!(slots::put(&engine, b"", b"v").is_err());
        slots::put(&engine, &[b'k'; 28], &[b'v'; 255]).unwrap();
        assert_eq!(
            get(&engine, &[b'k'; 28]),
            Some(vec![b'v'; 255]),
            "maximum-size record survives"
        );
    }

    #[test]
    fn spanning_values_round_trip_and_commit() {
        let (engine, _) = open(64);
        let big: Vec<u8> = (0..224).map(|i| (i % 250) as u8).collect();
        slots::put(&engine, b"big", &big).unwrap();
        slots::put(&engine, b"small", b"s").unwrap();
        assert_eq!(get(&engine, b"big"), Some(big));
        // Shrink in place, then grow past the old size.
        slots::put(&engine, b"big", b"tiny").unwrap();
        assert_eq!(get(&engine, b"big"), Some(b"tiny".to_vec()));
        let bigger: Vec<u8> = (0..255).map(|i| (i % 249) as u8).collect();
        slots::put(&engine, b"big", &bigger).unwrap();
        engine.commit_epoch().unwrap();
        assert_eq!(
            slots::scan(&engine).unwrap(),
            vec![
                (b"big".to_vec(), bigger),
                (b"small".to_vec(), b"s".to_vec())
            ]
        );
    }

    #[test]
    fn kv_survives_reopen() {
        let (engine, medium) = open(64);
        slots::put(&engine, b"persist", b"me").unwrap();
        engine.commit_epoch().unwrap();
        engine.close().unwrap();
        let (engine, _) = reopen(&medium, 64);
        assert_eq!(get(&engine, b"persist"), Some(b"me".to_vec()));
    }

    #[test]
    fn spanning_record_survives_reopen() {
        // A committed multi-slot record (head + 4 continuations) must come
        // back whole through crash recovery, while an uncommitted
        // overwrite of it rolls back.
        let (engine, medium) = open(64);
        let big: Vec<u8> = (0..255).map(|i| (i % 241) as u8).collect();
        slots::put(&engine, b"span", &big).unwrap();
        engine.commit_epoch().unwrap();
        engine.drain_persister().unwrap();
        // The executing epoch rewrites the record; dropping without
        // close leaves it volatile — the kill loses it.
        slots::put(&engine, b"span", b"short-lived").unwrap();
        drop(engine);
        let (engine, _) = reopen(&medium, 64);
        assert_eq!(get(&engine, b"span"), Some(big), "chain recovered whole");
    }
}
