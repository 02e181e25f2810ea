//! Byte-transfer contract of `MemoryNode::read_bytes` / `write_bytes`:
//! agreement with a flat byte-array model over random ranges, no
//! intra-word tearing under a concurrent whole-word writer, and no lost
//! bytes when unaligned writers share an edge word.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use farmem_fabric::{FabricError, MemoryNode, NodeId};
use proptest::prelude::*;

/// A small node, so random ranges overlap often and hit the last word.
const CAP: u64 = 512;

/// Bytes a write with `seed` stores: distinct per position and per seed.
fn pattern(seed: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|k| seed.wrapping_add((k as u8).wrapping_mul(31)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]
    #[test]
    fn byte_ranges_match_a_flat_model(
        ops in prop::collection::vec(
            (
                any::<bool>(),
                prop_oneof![0u64..CAP + 16, (CAP - 24)..=CAP],
                prop_oneof![0usize..9, 0usize..80, 0usize..=CAP as usize],
                any::<u8>(),
            ),
            1..48,
        )
    ) {
        let node = MemoryNode::new(NodeId(0), CAP);
        let mut model = vec![0u8; CAP as usize];
        for (write, offset, len, seed) in ops {
            let fits = len == 0 || offset + len as u64 <= CAP;
            if write {
                let data = pattern(seed, len);
                let r = node.write_bytes(offset, &data);
                if fits {
                    prop_assert_eq!(r, Ok(()));
                    let at = offset as usize;
                    if len > 0 {
                        model[at..at + len].copy_from_slice(&data);
                    }
                } else {
                    prop_assert!(matches!(r, Err(FabricError::OutOfBounds { .. })));
                }
            } else {
                let mut buf = vec![0xa5u8; len];
                let r = node.read_bytes(offset, &mut buf);
                if fits {
                    prop_assert_eq!(r, Ok(()));
                    let at = offset as usize;
                    if len > 0 {
                        prop_assert_eq!(&buf[..], &model[at..at + len]);
                    }
                } else {
                    prop_assert!(matches!(r, Err(FabricError::OutOfBounds { .. })));
                }
            }
        }
        let mut all = vec![0u8; CAP as usize];
        node.read_bytes(0, &mut all).unwrap();
        prop_assert_eq!(all, model);
    }
}

#[test]
fn multiword_reads_never_tear_a_word() {
    const WORDS: usize = 64;
    let node = MemoryNode::new(NodeId(0), 4096);
    let a: u64 = 0x0123_4567_89ab_cdef;
    let b: u64 = !a;
    let fill = |w: u64| -> Vec<u8> { (0..WORDS).flat_map(|_| w.to_le_bytes()).collect() };
    let (pa, pb) = (fill(a), fill(b));
    node.write_bytes(64, &pa).unwrap();
    let start = Barrier::new(2);
    let done = AtomicBool::new(false);
    let torn = std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            let mut flip = false;
            while !done.load(Ordering::SeqCst) {
                node.write_bytes(64, if flip { &pa } else { &pb }).unwrap();
                flip = !flip;
            }
        });
        start.wait();
        let mut buf = vec![0u8; WORDS * 8];
        let mut torn = None;
        for _ in 0..200_000 {
            node.read_bytes(64, &mut buf).unwrap();
            let words = buf
                .chunks_exact(8)
                .map(|w| u64::from_le_bytes(w.try_into().unwrap()));
            torn = words.enumerate().find(|&(_, w)| w != a && w != b);
            if torn.is_some() {
                break;
            }
        }
        // Stop the writer before asserting, so a failure cannot hang the scope.
        done.store(true, Ordering::SeqCst);
        torn
    });
    assert_eq!(torn, None, "a word was torn: (index, value)");
}

#[test]
fn unaligned_writers_sharing_an_edge_word_both_survive() {
    let node = MemoryNode::new(NodeId(0), 4096);
    // Writer X owns bytes [73, 84), writer Y owns [84, 97): word 80..88
    // is a partial edge word of both ranges.
    let (x_at, x_len) = (73u64, 11usize);
    let (y_at, y_len) = (84u64, 13usize);
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for (at, len, salt) in [(x_at, x_len, 0u8), (y_at, y_len, 0x80)] {
            let (node, start) = (&node, &start);
            s.spawn(move || {
                start.wait();
                let mut back = vec![0u8; len];
                for i in 0..20_000u32 {
                    let data = pattern(salt ^ i as u8, len);
                    node.write_bytes(at, &data).unwrap();
                    node.read_bytes(at, &mut back).unwrap();
                    assert_eq!(back, data, "bytes at {at} lost an update at iteration {i}");
                }
            });
        }
    });
    let last = 19_999u32 as u8;
    let mut back = vec![0u8; x_len + y_len];
    node.read_bytes(x_at, &mut back).unwrap();
    assert_eq!(&back[..x_len], &pattern(last, x_len)[..]);
    assert_eq!(&back[x_len..], &pattern(0x80 ^ last, y_len)[..]);
    let mut outside = [0u8; 2];
    node.read_bytes(x_at - 1, &mut outside[..1]).unwrap();
    node.read_bytes(y_at + y_len as u64, &mut outside[1..])
        .unwrap();
    assert_eq!(outside, [0, 0], "bytes outside both ranges stay untouched");
}
