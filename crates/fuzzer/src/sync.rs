//! The corpus sync contract, [`CorpusSync`], and the fleet's one store,
//! [`ShardedHub`].
//!
//! Every fleet instance exchanges corpora through a `CorpusSync`. A
//! thread instance holds the parent's [`ShardedHub`] directly; a worker
//! process holds a pipe-backed client ([`crate::fabric`]) whose frames
//! the parent turns into calls on the same hub.
//!
//! ## The contract
//!
//! * **Content-idempotent publish**: byte-identical inputs are stored
//!   once, whoever publishes them, whenever. Supervised restarts depend
//!   on this — a resumed worker may republish finds its dead predecessor
//!   already shared.
//! * **Publisher-filtered fetch**: `fetch_since(cursor, reader)` returns
//!   entries the reader did not publish itself, in publish order, and
//!   advances the cursor past everything (own entries are skipped, not
//!   deferred).
//! * **Typed cursor errors**: a cursor beyond the published count returns
//!   [`CursorError`] instead of clamping, so a remote transport echoing
//!   back a corrupt cursor gets a hard error it can surface, not a
//!   silent clamp that re-delivers or skips entries. Cursors are `u64`
//!   so the contract is identical across process boundaries and pointer
//!   widths.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A sync cursor pointed beyond the published corpus — broken cursor
/// accounting in the caller or a corrupt cursor echoed over a transport.
///
/// The store did not fetch anything and did not move the cursor; the
/// caller decides whether to reset, resync from zero, or kill the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CursorError {
    /// The cursor the caller presented.
    pub cursor: u64,
    /// How many entries the store has actually published.
    pub published: u64,
}

impl std::fmt::Display for CursorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sync cursor {} beyond published corpus ({} entries)",
            self.cursor, self.published
        )
    }
}

impl std::error::Error for CursorError {}

/// The corpus exchange contract shared by every fleet transport.
///
/// See the [module docs](self) for the semantics each implementation must
/// uphold. Object-safe: the fabric holds its store as `Arc<dyn
/// CorpusSync>` so tests can swap transports.
pub trait CorpusSync: Send + Sync {
    /// Publishes newly found inputs on behalf of instance `publisher`.
    /// Inputs the store has already seen (from any publisher) are dropped.
    fn publish(&self, publisher: usize, inputs: Vec<Vec<u8>>);

    /// Fetches inputs published since `cursor` by instances other than
    /// `reader`, advancing the cursor past everything seen.
    ///
    /// # Errors
    ///
    /// [`CursorError`] if `cursor` is beyond the published count; the
    /// cursor is left untouched.
    fn fetch_since(&self, cursor: &mut u64, reader: usize) -> Result<Vec<Arc<[u8]>>, CursorError>;
}

/// One published corpus entry: the payload plus who found it.
#[derive(Debug, Clone)]
struct SyncEntry {
    publisher: usize,
    input: Arc<[u8]>,
}

/// One stripe of a [`ShardedHub`]: globally sequenced entries whose
/// content hashes to this stripe, plus the stripe's slice of the dedup
/// set.
#[derive(Debug, Default)]
struct Shard {
    entries: Vec<(u64, SyncEntry)>,
    seen: HashSet<Arc<[u8]>>,
}

/// The fleet's corpus store: a lock-striped [`CorpusSync`] for many
/// concurrent publishers.
///
/// Published payloads are stored as [`Arc<[u8]>`], so a fetch is
/// O(new entries) pointer clones — payload bytes are shared across the
/// whole fleet, never deep-copied — and the dedup set costs pointers, not
/// copies. The hub stripes the corpus by **content hash** (so the
/// idempotence check for a given input always lands on the same stripe)
/// and orders entries with a global atomic sequence counter.
///
/// Sequence numbers are assigned *while holding the stripe lock*, which
/// gives fetchers a simple visibility rule: after loading the counter,
/// every entry numbered below the loaded value is either already in its
/// stripe or its publisher still holds that stripe's lock — so locking
/// each stripe in turn observes all of them. A fetch collects from all
/// stripes, merges by sequence number, and advances the cursor to the
/// loaded count.
#[derive(Debug)]
pub struct ShardedHub {
    shards: Box<[Mutex<Shard>]>,
    seq: AtomicU64,
}

impl ShardedHub {
    /// Default stripe count: enough to keep a dozen service threads from
    /// colliding, small enough that fetches stay cheap.
    pub const DEFAULT_SHARDS: usize = 8;

    /// Creates an empty hub with [`Self::DEFAULT_SHARDS`] stripes.
    pub fn new() -> Self {
        ShardedHub::with_shards(Self::DEFAULT_SHARDS)
    }

    /// Creates an empty hub with `shards` stripes.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardedHub {
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            seq: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, input: &[u8]) -> &Mutex<Shard> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        input.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    /// Total distinct inputs ever published.
    pub fn published_count(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }
}

impl Default for ShardedHub {
    fn default() -> Self {
        ShardedHub::new()
    }
}

impl CorpusSync for ShardedHub {
    fn publish(&self, publisher: usize, inputs: Vec<Vec<u8>>) {
        for input in inputs {
            let input: Arc<[u8]> = Arc::from(input);
            let mut shard = self.shard_for(&input).lock().expect("shard poisoned");
            if shard.seen.insert(Arc::clone(&input)) {
                // Sequenced inside the stripe lock — see the type docs for
                // why fetch visibility depends on this.
                let seq = self.seq.fetch_add(1, Ordering::AcqRel);
                shard.entries.push((seq, SyncEntry { publisher, input }));
            }
        }
    }

    fn fetch_since(&self, cursor: &mut u64, reader: usize) -> Result<Vec<Arc<[u8]>>, CursorError> {
        let upto = self.seq.load(Ordering::Acquire);
        if *cursor > upto {
            return Err(CursorError {
                cursor: *cursor,
                published: upto,
            });
        }
        let mut fresh: Vec<(u64, Arc<[u8]>)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("shard poisoned");
            // Entries are appended in ascending seq within a stripe, so
            // scan back-to-front and stop at the cursor.
            for (seq, entry) in shard.entries.iter().rev() {
                if *seq < *cursor {
                    break;
                }
                if *seq < upto && entry.publisher != reader {
                    fresh.push((*seq, Arc::clone(&entry.input)));
                }
            }
        }
        fresh.sort_unstable_by_key(|(seq, _)| *seq);
        *cursor = upto;
        Ok(fresh.into_iter().map(|(_, input)| input).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default striping and a single stripe, for contract tests.
    fn stores() -> Vec<(&'static str, ShardedHub)> {
        vec![
            ("ShardedHub", ShardedHub::new()),
            ("ShardedHub(1)", ShardedHub::with_shards(1)),
        ]
    }

    #[test]
    fn publish_fetch_roundtrip_under_the_trait() {
        for (name, hub) in stores() {
            let mut cursor = 0u64;
            assert!(hub.fetch_since(&mut cursor, 1).unwrap().is_empty());
            hub.publish(0, vec![vec![1], vec![2]]);
            let fetched = hub.fetch_since(&mut cursor, 1).unwrap();
            assert_eq!(fetched.len(), 2, "{name}");
            assert_eq!(&*fetched[0], &[1][..], "{name} order");
            assert_eq!(&*fetched[1], &[2][..], "{name} order");
            assert!(hub.fetch_since(&mut cursor, 1).unwrap().is_empty());
            hub.publish(0, vec![vec![3]]);
            let fetched = hub.fetch_since(&mut cursor, 1).unwrap();
            assert_eq!(fetched.len(), 1, "{name}");
            assert_eq!(hub.published_count(), 3, "{name}");
            assert_eq!(cursor, 3, "{name}");
        }
    }

    #[test]
    fn own_publications_are_skipped_not_deferred() {
        for (name, hub) in stores() {
            hub.publish(0, vec![vec![10]]);
            hub.publish(1, vec![vec![11]]);
            hub.publish(0, vec![vec![12]]);
            let mut cursor = 0u64;
            let fetched = hub.fetch_since(&mut cursor, 0).unwrap();
            assert_eq!(fetched.len(), 1, "{name}");
            assert_eq!(&*fetched[0], &[11][..], "{name}");
            assert!(
                hub.fetch_since(&mut cursor, 0).unwrap().is_empty(),
                "{name}"
            );
            let mut other = 0u64;
            assert_eq!(hub.fetch_since(&mut other, 2).unwrap().len(), 3, "{name}");
        }
    }

    #[test]
    fn publish_is_content_idempotent() {
        for (name, hub) in stores() {
            hub.publish(0, vec![vec![1], vec![2]]);
            hub.publish(0, vec![vec![1]]);
            hub.publish(1, vec![vec![2], vec![3]]);
            assert_eq!(hub.published_count(), 3, "{name}");
            let mut cursor = 0u64;
            assert_eq!(hub.fetch_since(&mut cursor, 9).unwrap().len(), 3, "{name}");
        }
    }

    #[test]
    fn cursor_overrun_is_a_typed_error_and_moves_nothing() {
        for (name, hub) in stores() {
            hub.publish(0, vec![vec![1]]);
            let mut cursor = 5u64;
            let err = hub.fetch_since(&mut cursor, 1).unwrap_err();
            assert_eq!(
                err,
                CursorError {
                    cursor: 5,
                    published: 1
                },
                "{name}"
            );
            assert!(err.to_string().contains("beyond published corpus"));
            // The cursor is untouched — the caller owns the recovery.
            assert_eq!(cursor, 5, "{name}");
            // A reset cursor recovers the full stream.
            cursor = 0;
            assert_eq!(hub.fetch_since(&mut cursor, 1).unwrap().len(), 1, "{name}");
        }
    }

    #[test]
    fn cursor_at_boundary_is_fine() {
        for (name, hub) in stores() {
            hub.publish(0, vec![vec![1], vec![2]]);
            let mut cursor = hub.published_count();
            assert!(
                hub.fetch_since(&mut cursor, 1).unwrap().is_empty(),
                "{name}"
            );
            assert_eq!(cursor, 2, "{name}");
        }
    }

    /// The degenerate cursor-fault shape the fabric can hit after state
    /// corruption: a nonzero cursor presented to a hub that has *zero*
    /// entries. The typed error must report `published: 0`, leave the
    /// cursor alone, and a reset-to-zero must fully recover — including
    /// picking up entries published after the fault.
    #[test]
    fn cursor_fault_on_zero_entry_hub_recovers_by_reset() {
        for (name, hub) in stores() {
            let mut cursor = 1u64;
            let err = hub.fetch_since(&mut cursor, 0).unwrap_err();
            assert_eq!(
                err,
                CursorError {
                    cursor: 1,
                    published: 0
                },
                "{name}"
            );
            assert_eq!(cursor, 1, "{name}: cursor must not move on error");
            // The CURSOR_FAULT recovery protocol: reset and refetch.
            cursor = 0;
            assert!(
                hub.fetch_since(&mut cursor, 0).unwrap().is_empty(),
                "{name}"
            );
            hub.publish(1, vec![vec![42]]);
            assert_eq!(hub.fetch_since(&mut cursor, 0).unwrap().len(), 1, "{name}");
            assert_eq!(cursor, 1, "{name}");
        }
    }

    /// A restarted worker republishes everything it knows (it cannot
    /// tell what arrived before it died). The replay must be invisible:
    /// no new sequence numbers, no duplicate deliveries to readers who
    /// already caught up, and a from-zero reader still sees each
    /// distinct input exactly once.
    #[test]
    fn restart_replay_of_duplicate_publishes_is_harmless() {
        for (name, hub) in stores() {
            hub.publish(0, vec![vec![1], vec![2], vec![3]]);
            let mut reader = 0u64;
            assert_eq!(hub.fetch_since(&mut reader, 1).unwrap().len(), 3, "{name}");

            // Worker 0 dies and its replacement replays the same finds,
            // plus one genuinely new discovery.
            hub.publish(0, vec![vec![1], vec![2], vec![3], vec![4]]);
            assert_eq!(hub.published_count(), 4, "{name}: replay minted seqs");
            let fresh = hub.fetch_since(&mut reader, 1).unwrap();
            assert_eq!(fresh.len(), 1, "{name}: caught-up reader re-delivered");
            assert_eq!(&*fresh[0], &[4][..], "{name}");

            // A cold reader (e.g. the replacement itself, cursor zero)
            // sees each distinct input exactly once.
            let mut cold = 0u64;
            let all = hub.fetch_since(&mut cold, 9).unwrap();
            assert_eq!(all.len(), 4, "{name}");
            let distinct: HashSet<&[u8]> = all.iter().map(|input| &**input).collect();
            assert_eq!(distinct.len(), 4, "{name}: duplicates crossed the hub");
        }
    }

    #[test]
    fn fetches_share_payload_allocations() {
        for (name, hub) in stores() {
            hub.publish(0, vec![vec![7u8; 1024]]);
            let (mut a, mut b) = (0u64, 0u64);
            let from_a = hub.fetch_since(&mut a, 1).unwrap();
            let from_b = hub.fetch_since(&mut b, 2).unwrap();
            assert!(Arc::ptr_eq(&from_a[0], &from_b[0]), "{name} deep-copied");
        }
    }

    #[test]
    fn sharded_merges_across_stripes_in_publish_order() {
        let hub = ShardedHub::with_shards(4);
        // Enough inputs to land on several stripes.
        let inputs: Vec<Vec<u8>> = (0u8..32).map(|i| vec![i, i.wrapping_mul(37)]).collect();
        hub.publish(0, inputs.clone());
        let mut cursor = 0u64;
        let fetched = hub.fetch_since(&mut cursor, 1).unwrap();
        let got: Vec<Vec<u8>> = fetched.iter().map(|a| a.to_vec()).collect();
        assert_eq!(got, inputs, "publish order lost across stripes");
        assert_eq!(cursor, 32);
    }

    #[test]
    fn sharded_stress_readers_see_others_exactly_once_and_self_never() {
        const WRITERS: usize = 4;
        const PER_WRITER: usize = 128;
        let hub = Arc::new(ShardedHub::new());
        let all_published = Arc::new(std::sync::Barrier::new(WRITERS));
        std::thread::scope(|scope| {
            let mut readers = Vec::new();
            for me in 0..WRITERS {
                let hub = Arc::clone(&hub);
                let all_published = Arc::clone(&all_published);
                readers.push(scope.spawn(move || {
                    let mut cursor = 0u64;
                    let mut seen: Vec<Vec<u8>> = Vec::new();
                    for i in 0..PER_WRITER {
                        hub.publish(me, vec![vec![me as u8, i as u8]]);
                        for input in hub.fetch_since(&mut cursor, me).unwrap() {
                            seen.push(input.to_vec());
                        }
                    }
                    all_published.wait();
                    for input in hub.fetch_since(&mut cursor, me).unwrap() {
                        seen.push(input.to_vec());
                    }
                    (me, seen)
                }));
            }
            for reader in readers {
                let (me, seen) = reader.join().unwrap();
                assert!(seen.iter().all(|input| input[0] != me as u8));
                let unique: HashSet<&Vec<u8>> = seen.iter().collect();
                assert_eq!(unique.len(), seen.len(), "reader {me} saw a duplicate");
                assert_eq!(seen.len(), (WRITERS - 1) * PER_WRITER);
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardedHub::with_shards(0);
    }
}
