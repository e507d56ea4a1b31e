//! The kv teardown check: a store reopened from its fenced bytes must
//! scan exactly as it did before close, and a corrupted image must not.

use std::sync::Arc;

use picl_benchmark::kv::{durability_mismatches, engine_config, mismatches};
use picl_serve::{Backend, ServeKv};
use picl_store::layout::{Geometry, DATA_OFFSET};
use picl_store::persist::CountingMedium;
use picl_store::slots::SLOT_LIVE;
use picl_telemetry::Telemetry;

/// A closed store's surviving image and its pre-close scan.
fn closed_store(keys: u64) -> (Vec<u8>, picl_store::kv::KvPairs) {
    let cfg = engine_config(keys);
    let geometry = Geometry {
        lines: cfg.lines,
        log_blocks: cfg.log_blocks,
    };
    let medium = Arc::new(CountingMedium::new(geometry.total_len()));
    let (kv, _) = ServeKv::open(Arc::clone(&medium) as _, cfg, Telemetry::off(), 8, 1).unwrap();
    for i in 0..keys {
        let key = format!("k{i:010}");
        kv.put(0, key.as_bytes(), &[b'a' + (i % 26) as u8; 100])
            .unwrap();
    }
    let mut before = kv.scan().unwrap();
    before.sort();
    kv.commit().unwrap();
    kv.close().unwrap();
    (medium.surviving_image(), before)
}

#[test]
fn clean_image_recovers_every_key() {
    let keys = 200;
    let (image, before) = closed_store(keys);
    assert_eq!(before.len(), keys as usize);
    assert_eq!(
        durability_mismatches(&before, image, &engine_config(keys)).unwrap(),
        0
    );
}

#[test]
fn a_flipped_byte_in_the_image_is_caught() {
    let keys = 200;
    let (mut image, before) = closed_store(keys);
    // Flip a value byte in the first live record head (bytes 48..64 of a
    // head slot hold its first value bytes).
    let data = DATA_OFFSET as usize;
    let head = (0..engine_config(keys).lines as usize)
        .map(|line| data + line * 64)
        .find(|&at| image[at] == SLOT_LIVE)
        .expect("the table holds live records");
    image[head + 50] ^= 0x01;
    let bad = durability_mismatches(&before, image, &engine_config(keys)).unwrap();
    assert_eq!(bad, 1, "exactly the corrupted key differs");
}

#[test]
fn mismatches_counts_missing_extra_and_changed_keys() {
    let pair = |k: &str, v: &str| (k.as_bytes().to_vec(), v.as_bytes().to_vec());
    let before = vec![pair("a", "1"), pair("b", "2"), pair("c", "3")];
    assert_eq!(mismatches(&before, &before.clone()), 0);
    let after = vec![pair("a", "1"), pair("b", "9"), pair("d", "4")];
    // b changed, c missing, d extra.
    assert_eq!(mismatches(&before, &after), 3);
}
