//! Binary persistence for hub labels.
//!
//! Label construction is the expensive phase (minutes on large networks,
//! Fig. 9b); production deployments build once and ship the index. The
//! format is a versioned little-endian stream:
//!
//! ```text
//! magic "HLBL" | version u32 | node count u64
//! per node: entry count u32 | (hub_rank u32, dist u64)*
//! ```

use crate::HubLabels;
use roadnet::flat::{ensure, FlatError, FlatFile, FlatStreamWriter, FlatVec, FlatWriter, LoadMode};
use roadnet::Dist;
use std::fmt;
use std::path::Path;

const MAGIC: &[u8; 4] = b"HLBL";
const VERSION: u32 = 1;

/// Magic for the flat v2 hub-label container.
pub const FLAT_MAGIC: [u8; 8] = *b"FANNHL2\0";
const FLAT_VERSION: u32 = 2;

/// Errors raised while decoding a label file.
#[derive(Debug, PartialEq, Eq)]
pub enum PersistError {
    BadMagic,
    UnsupportedVersion(u32),
    Truncated,
    /// A declared count would overflow or exceed the remaining bytes.
    Oversized,
    /// Labels must be sorted by hub rank; a corrupt stream is rejected.
    UnsortedLabel(usize),
    /// Every label must end in its own hub at distance 0, the hubs
    /// forming a permutation: the hub order repair reads back.
    NoHubOrder,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not a hub-label file"),
            PersistError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            PersistError::Truncated => write!(f, "unexpected end of data"),
            PersistError::Oversized => write!(f, "declared length exceeds input"),
            PersistError::UnsortedLabel(v) => write!(f, "label of node {v} is not sorted"),
            PersistError::NoHubOrder => write!(f, "labels do not end in their own hubs"),
        }
    }
}

impl std::error::Error for PersistError {}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).ok_or(PersistError::Truncated)?;
        if end > self.buf.len() {
            return Err(PersistError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Guard a declared element count against the bytes actually left, so a
    /// corrupt header can never drive an overflowing or huge allocation.
    fn check_count(&self, count: usize, elem_bytes: usize) -> Result<(), PersistError> {
        match count.checked_mul(elem_bytes) {
            Some(need) if need <= self.remaining() => Ok(()),
            _ => Err(PersistError::Oversized),
        }
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

impl HubLabels {
    /// Serialize to the versioned v1 binary stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.total_label_entries() * 12);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.num_nodes() as u64).to_le_bytes());
        for v in 0..self.num_nodes() {
            let (ranks, dists) = self.label(v as u32);
            out.extend_from_slice(&(ranks.len() as u32).to_le_bytes());
            for (&rank, &dist) in ranks.iter().zip(dists) {
                out.extend_from_slice(&rank.to_le_bytes());
                out.extend_from_slice(&dist.to_le_bytes());
            }
        }
        out
    }

    /// Decode a stream produced by [`HubLabels::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Result<Self, PersistError> {
        let mut r = Reader { buf: data, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(PersistError::UnsupportedVersion(version));
        }
        let n = r.u64()?;
        let n = usize::try_from(n).map_err(|_| PersistError::Oversized)?;
        // Each node costs at least its 4-byte entry count.
        r.check_count(n, 4)?;
        let mut labels = Vec::with_capacity(n);
        for v in 0..n {
            let len = r.u32()? as usize;
            r.check_count(len, 12)?;
            let mut label: Vec<(u32, Dist)> = Vec::with_capacity(len);
            for _ in 0..len {
                let rank = r.u32()?;
                let dist = r.u64()?;
                label.push((rank, dist));
            }
            if !label.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(PersistError::UnsortedLabel(v));
            }
            labels.push(label);
        }
        let labels = HubLabels::from_labels(labels);
        if labels.recover_order().is_none() {
            return Err(PersistError::NoHubOrder);
        }
        Ok(labels)
    }

    /// Serialize into the flat v2 container (DESIGN.md §11). Sections:
    /// `0` entry offsets (`n + 1` × u64), `1` hub ranks, `2` distances.
    pub fn to_flat_bytes(&self) -> Vec<u8> {
        self.flat_writer().finish()
    }

    /// Write the flat v2 container to `path`, streaming each CSR array
    /// straight to the file — no assembled in-memory copy.
    pub fn write_flat(&self, path: &Path) -> std::io::Result<()> {
        let (offsets, ranks, dists) = self.flat_parts();
        let mut w = FlatStreamWriter::create(path, FLAT_MAGIC, FLAT_VERSION, 3)?;
        w.section(offsets)?;
        w.section(ranks)?;
        w.section(dists)?;
        w.finish()
    }

    fn flat_writer(&self) -> FlatWriter {
        let (offsets, ranks, dists) = self.flat_parts();
        let mut w = FlatWriter::new(FLAT_MAGIC, FLAT_VERSION);
        w.section(offsets);
        w.section(ranks);
        w.section(dists);
        w
    }

    /// Zero-copy load of a flat v2 label index: the file is brought behind
    /// one aligned buffer (mapped when possible, see [`LoadMode::Auto`])
    /// and all three CSR arrays are served directly from it. Validation
    /// only scans — no per-node allocation or decode pass (one O(n) array
    /// checks that the labels carry their hub order).
    pub fn read_flat(path: &Path) -> Result<Self, FlatError> {
        Self::read_flat_with(path, LoadMode::Auto)
    }

    /// [`HubLabels::read_flat`] with an explicit backing [`LoadMode`].
    pub fn read_flat_with(path: &Path, mode: LoadMode) -> Result<Self, FlatError> {
        Self::from_flat(FlatFile::open(path, FLAT_MAGIC, FLAT_VERSION, mode)?)
    }

    /// Parse a flat v2 label index from in-memory bytes (copies once into
    /// an aligned buffer; [`HubLabels::read_flat`] is the zero-copy path).
    pub fn from_flat_bytes(bytes: &[u8]) -> Result<Self, FlatError> {
        Self::from_flat(FlatFile::parse(bytes, FLAT_MAGIC, FLAT_VERSION)?)
    }

    fn from_flat(f: FlatFile) -> Result<Self, FlatError> {
        ensure(f.section_count() == 3, "label section count")?;
        let offsets: FlatVec<u64> = f.section(0)?;
        let ranks: FlatVec<u32> = f.section(1)?;
        let dists: FlatVec<u64> = f.section(2)?;
        // Hoist the typed views onto plain slices once: the scans below
        // touch every label entry, and indexing through the `FlatVec`
        // handle would re-resolve the backing on each access.
        let off: &[u64] = &offsets;
        let rk: &[u32] = &ranks;
        ensure(!off.is_empty(), "label offsets empty")?;
        ensure(off[0] == 0, "label offsets origin")?;
        ensure(
            off.windows(2).all(|w| w[0] <= w[1]),
            "label offsets monotone",
        )?;
        ensure(
            off[off.len() - 1] as usize == rk.len(),
            "label offsets terminal",
        )?;
        ensure(rk.len() == dists.len(), "label array lengths")?;
        ensure(
            off.windows(2).all(|w| {
                rk[w[0] as usize..w[1] as usize]
                    .windows(2)
                    .all(|r| r[0] < r[1])
            }),
            "label ranks sorted",
        )?;
        let labels = HubLabels::from_flat_parts(offsets, ranks, dists);
        ensure(labels.recover_order().is_some(), "label self hubs")?;
        Ok(labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::GraphBuilder;

    fn sample() -> HubLabels {
        let mut b = GraphBuilder::new();
        for i in 0..10 {
            b.add_node(i as f64, (i % 3) as f64);
        }
        for i in 0..9 {
            b.add_edge(i, i + 1, 1 + i % 4);
        }
        b.add_edge(0, 9, 7);
        HubLabels::build(&b.build())
    }

    #[test]
    fn roundtrip_preserves_distances() {
        let hl = sample();
        let bytes = hl.to_bytes();
        let hl2 = HubLabels::from_bytes(&bytes).unwrap();
        assert_eq!(hl2.num_nodes(), hl.num_nodes());
        assert_eq!(hl2.total_label_entries(), hl.total_label_entries());
        for s in 0..10 {
            for t in 0..10 {
                assert_eq!(hl2.distance(s, t), hl.distance(s, t));
            }
        }
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(matches!(
            HubLabels::from_bytes(b"NOPE"),
            Err(PersistError::BadMagic)
        ));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut bytes = sample().to_bytes();
        bytes[4] = 99;
        assert!(matches!(
            HubLabels::from_bytes(&bytes),
            Err(PersistError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = sample().to_bytes();
        // Every strict prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            assert!(HubLabels::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn rejects_unsorted_label() {
        let hl = sample();
        let mut bytes = hl.to_bytes();
        // Find a node with >= 2 entries and swap its first two ranks.
        let mut pos = 16;
        loop {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            if len >= 2 {
                let a = pos + 4;
                let b = pos + 4 + 12;
                let mut r1 = [0u8; 4];
                r1.copy_from_slice(&bytes[a..a + 4]);
                let mut r2 = [0u8; 4];
                r2.copy_from_slice(&bytes[b..b + 4]);
                bytes[a..a + 4].copy_from_slice(&r2);
                bytes[b..b + 4].copy_from_slice(&r1);
                break;
            }
            pos += 4 + len * 12;
        }
        assert!(matches!(
            HubLabels::from_bytes(&bytes),
            Err(PersistError::UnsortedLabel(_))
        ));
    }

    #[test]
    fn rejects_oversized_declared_counts() {
        // A header declaring u64::MAX nodes must fail fast, not allocate.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"HLBL");
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            HubLabels::from_bytes(&bytes),
            Err(PersistError::Oversized)
        ));
        // Same for a per-node entry count far beyond the remaining bytes.
        let mut bytes = sample().to_bytes();
        bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            HubLabels::from_bytes(&bytes),
            Err(PersistError::Oversized)
        ));
    }

    #[test]
    fn fuzzed_corruption_never_panics() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let base = sample().to_bytes();
        let mut rng = StdRng::seed_from_u64(0x4858_4c42);
        for _ in 0..500 {
            let mut bytes = base.clone();
            // Mutate a few random bytes, sometimes truncate or extend.
            for _ in 0..rng.gen_range(1usize..8) {
                let at = rng.gen_range(0usize..bytes.len());
                bytes[at] = rng.gen_range(0u32..256) as u8;
            }
            if rng.gen_bool(0.3) {
                bytes.truncate(rng.gen_range(0usize..bytes.len()));
            } else if rng.gen_bool(0.1) {
                bytes.extend_from_slice(&base[..rng.gen_range(0usize..base.len())]);
            }
            // Must return Ok or a typed error — never panic or abort.
            let _ = HubLabels::from_bytes(&bytes);
        }
    }

    #[test]
    fn flat_round_trip_is_identical() {
        let hl = sample();
        let bytes = hl.to_flat_bytes();
        let hl2 = HubLabels::from_flat_bytes(&bytes).unwrap();
        assert!(hl2 == hl);
        for s in 0..10 {
            for t in 0..10 {
                assert_eq!(hl2.distance(s, t), hl.distance(s, t));
            }
        }
    }

    #[test]
    fn flat_rejects_malformed_containers() {
        use roadnet::flat::FlatError;
        let bytes = sample().to_flat_bytes();
        for cut in (0..bytes.len()).step_by(8) {
            assert!(
                HubLabels::from_flat_bytes(&bytes[..cut]).is_err(),
                "cut={cut}"
            );
        }
        assert!(matches!(
            HubLabels::from_flat_bytes(&bytes[..bytes.len() - 5]),
            Err(FlatError::Misaligned(_))
        ));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            HubLabels::from_flat_bytes(&bad),
            Err(FlatError::BadMagic)
        ));
        let mut bad = bytes.clone();
        bad[12] = 9;
        assert!(matches!(
            HubLabels::from_flat_bytes(&bad),
            Err(FlatError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn flat_rejects_unsorted_ranks() {
        let hl = sample();
        let mut bytes = hl.to_flat_bytes();
        // Ranks are section 1; find a node with >= 2 entries via offsets
        // (section 0, after header + 3 table entries) and swap its ranks.
        let table = 24usize;
        let off0 = u64::from_ne_bytes(bytes[table..table + 8].try_into().unwrap()) as usize;
        let off1 = u64::from_ne_bytes(bytes[table + 16..table + 24].try_into().unwrap()) as usize;
        let n = hl.num_nodes();
        let offsets: Vec<u64> = (0..=n)
            .map(|i| u64::from_ne_bytes(bytes[off0 + i * 8..off0 + i * 8 + 8].try_into().unwrap()))
            .collect();
        let v = (0..n)
            .find(|&v| offsets[v + 1] - offsets[v] >= 2)
            .expect("some label has two entries");
        let a = off1 + offsets[v] as usize * 4;
        let (r1, r2) = (
            <[u8; 4]>::try_from(&bytes[a..a + 4]).unwrap(),
            <[u8; 4]>::try_from(&bytes[a + 4..a + 8]).unwrap(),
        );
        bytes[a..a + 4].copy_from_slice(&r2);
        bytes[a + 4..a + 8].copy_from_slice(&r1);
        assert!(matches!(
            HubLabels::from_flat_bytes(&bytes),
            Err(roadnet::flat::FlatError::Corrupt("label ranks sorted"))
        ));
    }

    #[test]
    fn rejects_labels_without_their_hub_order() {
        // Drop node 0's last entry (its own hub): the order is lost.
        let hl = sample();
        let labels: Vec<Vec<(u32, Dist)>> = (0..hl.num_nodes() as u32)
            .map(|v| {
                let (r, d) = hl.label(v);
                let mut l: Vec<(u32, Dist)> = r.iter().copied().zip(d.iter().copied()).collect();
                if v == 0 {
                    l.pop();
                }
                l
            })
            .collect();
        let broken = HubLabels::from_labels(labels);
        assert!(matches!(
            HubLabels::from_bytes(&broken.to_bytes()),
            Err(PersistError::NoHubOrder)
        ));
        assert!(matches!(
            HubLabels::from_flat_bytes(&broken.to_flat_bytes()),
            Err(roadnet::flat::FlatError::Corrupt("label self hubs"))
        ));
    }
}
