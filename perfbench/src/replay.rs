//! Lookup replay for the traced run: the system's own index, rebuilt
//! from its snapshot into one `SimHashLshIndex`, is searched as
//! sign → candidates → exact re-rank through `wg_lsh`'s public API, so
//! each step gets its own span.

use std::time::Instant;

use warpgate_core::{WarpGate, WarpGateConfig};
use wg_lsh::SimHashLshIndex;
use wg_store::ColumnRef;
use wg_util::codec;
use wg_util::FxHashMap;

/// Spans and counts of one replayed lookup.
#[derive(Debug, Clone, Copy)]
pub struct ReplayTiming {
    pub sign_us: f64,
    pub candidates_us: f64,
    pub rerank_us: f64,
}

pub struct Replay {
    index: SimHashLshIndex,
    ref_of: FxHashMap<u32, ColumnRef>,
    id_of: FxHashMap<ColumnRef, u32>,
}

impl Replay {
    /// Rebuild the system's index (same ids, vectors, geometry, probes
    /// and hyperplane seed) from its flat snapshot. The snapshot frame is
    /// header, `(id, database, table, column)` entries, then the encoded
    /// index (see `warpgate_core::persist`).
    pub fn from_system(wg: &WarpGate, config: &WarpGateConfig) -> Result<Replay, String> {
        let bytes = wg.to_bytes();
        let (body, _) = wg_util::checksum::split_footer(&bytes).map_err(|e| e.to_string())?;
        let mut buf = &body[8..];
        let n = codec::get_len(&mut buf).map_err(|e| e.to_string())?;
        let mut ref_of = FxHashMap::default();
        for _ in 0..n {
            let id = codec::get_u32(&mut buf).map_err(|e| e.to_string())?;
            let database = codec::get_str(&mut buf).map_err(|e| e.to_string())?;
            let table = codec::get_str(&mut buf).map_err(|e| e.to_string())?;
            let column = codec::get_str(&mut buf).map_err(|e| e.to_string())?;
            ref_of.insert(id, ColumnRef::new(database, table, column));
        }
        let index_bytes = codec::get_bytes(&mut buf).map_err(|e| e.to_string())?;
        // The sharded index writes the single-index frame, so it decodes
        // straight into one unsharded index.
        let index = SimHashLshIndex::decode(&mut &index_bytes[..]).map_err(|e| e.to_string())?;
        if index.len() != ref_of.len() || index.probes() != config.probes {
            return Err(format!(
                "snapshot holds {} vectors for {} refs, {} probes",
                index.len(),
                ref_of.len(),
                index.probes()
            ));
        }
        let id_of = ref_of.iter().map(|(&id, r)| (r.clone(), id)).collect();
        Ok(Replay { index, ref_of, id_of })
    }

    /// Replay the lookup of an indexed column, with its stored vector as
    /// the query and the system's exclusion rule (the query column and
    /// its table-mates never answer). `None` for a column not indexed.
    pub fn lookup(
        &self,
        query: &ColumnRef,
        k: usize,
    ) -> Option<(Vec<(ColumnRef, f32)>, ReplayTiming)> {
        let vector = self.index.vector(*self.id_of.get(query)?)?.to_vec();
        let vector = vector.as_slice();
        let exclude = |id: u32| match self.ref_of.get(&id) {
            None => true,
            Some(r) => r == query || r.same_table(query),
        };
        let t0 = Instant::now();
        let sig = self.index.hasher().sign(vector);
        let t1 = Instant::now();
        std::hint::black_box(self.index.candidates_signed(&sig));
        let t2 = Instant::now();
        let hits = self.index.search_signed_with_outcome(vector, &sig, k, exclude).0;
        let t3 = Instant::now();
        let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
        // The search regenerates the candidate set before re-ranking it;
        // its re-rank share is what remains after one candidate pass.
        let timing = ReplayTiming {
            sign_us: us(t0, t1),
            candidates_us: us(t1, t2),
            rerank_us: (us(t2, t3) - us(t1, t2)).max(0.0),
        };
        let answers = hits.into_iter().map(|(id, s)| (self.ref_of[&id].clone(), s)).collect();
        Some((answers, timing))
    }
}
