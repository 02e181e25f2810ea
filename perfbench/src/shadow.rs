//! The output check: a shadow model of what the cache must answer.
//!
//! The model mirrors the serving layer's visible state exactly: the last
//! value written per key, its TTL instant, and the worker's LRU order
//! under its byte budget. So every response has one right answer:
//! a hit must carry the latest put byte for byte and must be neither
//! deleted nor expired at the client's virtual clock, and a miss is
//! right only where a delete, an expiry or an eviction explains it.

use std::collections::{BTreeSet, HashMap};

use farmem_serve::{charged_bytes, Response};

use crate::gen;

struct Rec {
    /// Stream index of the write that produced the value.
    index: u32,
    /// Absolute virtual expiry instant (0 = never).
    expiry: u64,
    /// LRU position.
    tick: u64,
}

/// Expected state of one single-worker deployment.
pub struct Shadow {
    seed: u64,
    ttl_ns: u64,
    charge: u64,
    budget: u64,
    charged: u64,
    recs: HashMap<u32, Rec>,
    lru: BTreeSet<(u64, u32)>,
    tick: u64,
    expect: Vec<u8>,
    /// Records the model evicted for the byte budget.
    pub evicted: u64,
    /// Expired records the model saw a get unlink.
    pub expired: u64,
    /// Responses that differed from the model.
    pub errors: u64,
    /// The first such difference, for the report.
    pub first_error: Option<String>,
}

impl Shadow {
    pub fn new(seed: u64, value_len: usize, ttl_ns: u64, budget: u64) -> Shadow {
        Shadow {
            seed,
            ttl_ns,
            charge: charged_bytes(value_len as u64),
            budget,
            charged: 0,
            recs: HashMap::new(),
            lru: BTreeSet::new(),
            tick: 0,
            expect: vec![0; value_len],
            evicted: 0,
            expired: 0,
            errors: 0,
            first_error: None,
        }
    }

    fn fail(&mut self, what: String) {
        self.errors += 1;
        if self.first_error.is_none() {
            self.first_error = Some(what);
        }
    }

    fn unlink(&mut self, key: u32) -> Option<Rec> {
        let rec = self.recs.remove(&key)?;
        self.lru.remove(&(rec.tick, key));
        self.charged -= self.charge;
        Some(rec)
    }

    /// A put of `key` at stream position `index`, issued at virtual `now`.
    pub fn put(&mut self, key: u32, index: u32, now: u64, resp: &Result<Response, String>) {
        if !matches!(resp, Ok(Response::Stored)) {
            self.fail(format!("put #{index} of key {key}: {resp:?}"));
            return;
        }
        let expiry = if self.ttl_ns == 0 {
            0
        } else {
            now + self.ttl_ns
        };
        self.tick += 1;
        if let Some(old) = self.recs.insert(
            key,
            Rec {
                index,
                expiry,
                tick: self.tick,
            },
        ) {
            self.lru.remove(&(old.tick, key));
        } else {
            self.charged += self.charge;
        }
        self.lru.insert((self.tick, key));
        while self.charged > self.budget {
            let Some(&(_, oldest)) = self.lru.iter().next() else {
                break;
            };
            self.unlink(oldest);
            self.evicted += 1;
        }
    }

    /// A get of `key` issued at virtual `now`. Returns whether it hit.
    pub fn get(&mut self, key: u32, index: u32, now: u64, resp: &Result<Response, String>) -> bool {
        let found = self
            .recs
            .get(&key)
            .map(|r| (r.index, r.expiry != 0 && now >= r.expiry));
        let live = match found {
            Some((_, true)) => {
                // The owning worker unlinks an expired record on sight.
                self.unlink(key);
                self.expired += 1;
                None
            }
            Some((vindex, false)) => Some(vindex),
            None => None,
        };
        match (live, resp) {
            (Some(vindex), Ok(Response::Value(v))) => {
                gen::value(self.seed, key, vindex, &mut self.expect);
                if *v != self.expect {
                    self.fail(format!(
                        "get #{index} of key {key}: value differs from write #{vindex}"
                    ));
                }
                self.tick += 1;
                let rec = self.recs.get_mut(&key).expect("live record");
                self.lru.remove(&(rec.tick, key));
                rec.tick = self.tick;
                self.lru.insert((self.tick, key));
                true
            }
            (None, Ok(Response::Miss)) => false,
            (Some(vindex), other) => {
                self.fail(format!(
                    "get #{index} of key {key}: expected write #{vindex}, got {other:?}"
                ));
                false
            }
            (None, other) => {
                let shown = match other {
                    Ok(Response::Value(_)) => "a value (deleted, expired or evicted)".to_string(),
                    o => format!("{o:?}"),
                };
                self.fail(format!(
                    "get #{index} of key {key}: expected a miss, got {shown}"
                ));
                matches!(other, Ok(Response::Value(_)))
            }
        }
    }

    /// A delete of `key`.
    pub fn delete(&mut self, key: u32, index: u32, resp: &Result<Response, String>) {
        let existed = self.unlink(key).is_some();
        if *resp != Ok(Response::Deleted(existed)) {
            self.fail(format!(
                "delete #{index} of key {key}: expected Deleted({existed}), got {resp:?}"
            ));
        }
    }

    /// Live records in the model (expired ones not yet unlinked count,
    /// as they do in the worker's ledger).
    pub fn records(&self) -> u64 {
        self.recs.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(seed: u64, key: u32, index: u32) -> Result<Response, String> {
        let mut v = vec![0; 24];
        gen::value(seed, key, index, &mut v);
        Ok(Response::Value(v))
    }

    #[test]
    fn stale_wrong_and_expired_answers_are_errors() {
        let mut s = Shadow::new(7, 24, 1_000, u64::MAX);
        s.put(1, 0, 0, &Ok(Response::Stored));
        s.put(1, 1, 10, &Ok(Response::Stored));
        // The overwritten value is stale.
        assert!(s.get(1, 2, 20, &val(7, 1, 0)));
        assert_eq!(s.errors, 1);
        assert!(s.get(1, 3, 20, &val(7, 1, 1)));
        assert_eq!(s.errors, 1);
        // Past the TTL instant a hit is an error and the record is gone.
        s.get(1, 4, 1_010, &val(7, 1, 1));
        assert_eq!(s.errors, 2);
        assert_eq!(s.records(), 0);
        s.get(1, 5, 1_020, &Ok(Response::Miss));
        s.delete(1, 6, &Ok(Response::Deleted(false)));
        assert_eq!(s.errors, 2);
    }

    #[test]
    fn misses_must_be_explained_by_eviction() {
        // Budget for two records of the 32-byte class.
        let mut s = Shadow::new(3, 8, 0, 64);
        for (i, k) in [10u32, 11, 12].into_iter().enumerate() {
            s.put(k, i as u32, 0, &Ok(Response::Stored));
        }
        assert_eq!(s.evicted, 1);
        s.get(10, 3, 0, &Ok(Response::Miss)); // evicted: fine
        s.get(11, 4, 0, &Ok(Response::Miss)); // live: an error
        assert_eq!(s.errors, 1);
    }
}
