//! Banked on-chip shared memory — KAMI's "network".
//!
//! Values live at byte addresses with an element size recorded per write,
//! so a mismatched read (wrong precision or misaligned overlay) is caught
//! as a simulation error instead of silently reinterpreting bits. A store
//! that partially overlaps previously written data of a different extent
//! invalidates the stale cells, so the clobbered element reads back as
//! uninitialized instead of returning its old value.
//!
//! Storage is flat: two vectors indexed by byte address, one holding the
//! size of the element that starts at each address (0 = no element
//! starts there) and one its value. They grow only to the highest byte a
//! store has touched, so a block that stages 32 KiB holds 32 Ki slots.
//!
//! The module also provides the bank-conflict analysis behind the paper's
//! `θ_r` / `θ_w` factors: for a warp-wide access with a given element size
//! and stride, it computes how many bank cycles the access takes relative
//! to the conflict-free ideal.

/// Read or write, for conflict analysis and traffic split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
}

/// Layout summary of the live cells, used to skip overlap scans in the
/// common case where a block only ever stores one element size at
/// aligned addresses (every KAMI kernel today).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    Empty,
    Uniform(usize),
    Mixed,
}

/// Shared-memory space of one thread block.
#[derive(Clone)]
pub struct SharedMemory {
    capacity: usize,
    /// Per byte address: size of the element written there, 0 if no
    /// element starts at that byte.
    sizes: Vec<u8>,
    /// Per byte address: the value of the element starting there.
    values: Vec<f64>,
    layout: Layout,
    /// Largest element size ever stored — bounds the overlap scan window.
    max_elem: usize,
    bytes_read: u64,
    bytes_written: u64,
    peak_extent: usize,
}

impl SharedMemory {
    pub fn new(capacity: usize) -> Self {
        SharedMemory {
            capacity,
            sizes: Vec::new(),
            values: Vec::new(),
            layout: Layout::Empty,
            max_elem: 0,
            bytes_read: 0,
            bytes_written: 0,
            peak_extent: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Highest byte address touched + 1 — the block's shared-memory
    /// footprint (what a launch would have to reserve).
    pub fn peak_extent(&self) -> usize {
        self.peak_extent
    }

    /// Store `values` contiguously at byte `addr` with elements of
    /// `elem_size` bytes. Returns `Err` description on capacity overflow.
    ///
    /// A store that partially overlaps an existing cell of a different
    /// start or extent invalidates that cell: cells are keyed by start
    /// address, so without invalidation an 8-byte store at byte 0
    /// followed by a 4-byte store at byte 4 would leave the stale wide
    /// value readable at byte 0.
    ///
    /// # Panics
    /// If `elem_size` is 0 or above 255 — no precision has such an
    /// element.
    pub fn store(&mut self, addr: usize, elem_size: usize, values: &[f64]) -> Result<(), String> {
        self.store_cells(addr, elem_size, values.len(), Some(values))
    }

    /// Shape-only variant of [`Self::store`]: identical capacity check,
    /// overlap invalidation, counters, and layout bookkeeping, but cell
    /// values are placeholders. This is what the cost pass runs — it must
    /// see the exact same faults and footprint as a functional store
    /// without touching matrix data.
    pub fn store_shape(
        &mut self,
        addr: usize,
        elem_size: usize,
        count: usize,
    ) -> Result<(), String> {
        self.store_cells(addr, elem_size, count, None)
    }

    fn store_cells(
        &mut self,
        addr: usize,
        elem_size: usize,
        count: usize,
        values: Option<&[f64]>,
    ) -> Result<(), String> {
        assert!(
            (1..=usize::from(u8::MAX)).contains(&elem_size),
            "shared memory element size {elem_size} B out of range"
        );
        let extent = addr + count * elem_size;
        if extent > self.capacity {
            return Err(format!(
                "shared memory overflow: extent {extent} B > capacity {} B",
                self.capacity
            ));
        }
        if extent > self.sizes.len() {
            self.sizes.resize(extent, 0);
            self.values.resize(extent, 0.0);
        }
        // Partial overlaps can only exist once element sizes mix or an
        // address breaks the uniform alignment grid; skip the per-byte
        // scan on the fast path.
        let aligned = addr.is_multiple_of(elem_size);
        let uniform = aligned
            && match self.layout {
                Layout::Empty => true,
                Layout::Uniform(sz) => sz == elem_size,
                Layout::Mixed => false,
            };
        if !uniform {
            for i in 0..count {
                let a = addr + i * elem_size;
                let lo = a.saturating_sub(self.max_elem.saturating_sub(1));
                for s in lo..a + elem_size {
                    // The exact-start cell is replaced below.
                    if s != a && s + usize::from(self.sizes[s]) > a {
                        self.sizes[s] = 0;
                    }
                }
            }
        }
        let cells = addr..extent;
        for s in self.sizes[cells.clone()].iter_mut().step_by(elem_size) {
            *s = elem_size as u8;
        }
        let slots = self.values[cells].iter_mut().step_by(elem_size);
        match values {
            Some(vs) => slots.zip(vs).for_each(|(slot, &v)| *slot = v),
            None => slots.for_each(|slot| *slot = 0.0),
        }
        self.layout = if uniform {
            Layout::Uniform(elem_size)
        } else {
            Layout::Mixed
        };
        self.max_elem = self.max_elem.max(elem_size);
        self.bytes_written += (count * elem_size) as u64;
        self.peak_extent = self.peak_extent.max(extent);
        Ok(())
    }

    /// Load `count` elements of `elem_size` bytes from byte `addr`.
    /// Errors on uninitialized cells or element-size mismatch.
    pub fn load(
        &mut self,
        addr: usize,
        elem_size: usize,
        count: usize,
    ) -> Result<Vec<f64>, String> {
        let mut out = Vec::with_capacity(count);
        self.load_cells(addr, elem_size, count, Some(&mut out))?;
        Ok(out)
    }

    /// Shape-only variant of [`Self::load`]: identical initialization and
    /// element-size checks and the same traffic counter, without
    /// producing values (the cost pass's read).
    pub fn load_shape(
        &mut self,
        addr: usize,
        elem_size: usize,
        count: usize,
    ) -> Result<(), String> {
        self.load_cells(addr, elem_size, count, None)
    }

    fn load_cells(
        &mut self,
        addr: usize,
        elem_size: usize,
        count: usize,
        mut out: Option<&mut Vec<f64>>,
    ) -> Result<(), String> {
        for i in 0..count {
            let a = addr + i * elem_size;
            match self.sizes.get(a).map_or(0, |&sz| usize::from(sz)) {
                0 => return Err(format!("read of uninitialized shared memory at byte {a}")),
                sz if sz == elem_size => {
                    if let Some(o) = out.as_deref_mut() {
                        o.push(self.values[a]);
                    }
                }
                sz => {
                    return Err(format!(
                        "shared memory element-size mismatch at byte {a}: \
                         written as {sz} B, read as {elem_size} B"
                    ))
                }
            }
        }
        self.bytes_read += (count * elem_size) as u64;
        Ok(())
    }

    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Clear contents and counters (new kernel on the same block).
    pub fn reset(&mut self) {
        self.sizes.clear();
        self.values.clear();
        self.layout = Layout::Empty;
        self.max_elem = 0;
        self.bytes_read = 0;
        self.bytes_written = 0;
        self.peak_extent = 0;
    }
}

/// Bank-conflict factor θ for a warp-wide access pattern: `warp_size`
/// lanes access elements of `elem_size` bytes separated by `stride_bytes`.
/// Returns the paper's θ ∈ (0, 1], where 1 means conflict-free.
///
/// Contiguous accesses (`stride == elem_size`) are conflict-free on all
/// four devices: sub-word elements coalesce within a bank word, and wide
/// elements are split into half-warp transactions by the hardware. For
/// strided patterns we use the textbook replay model: a bank conflict
/// occurs when two lanes address *different* `bank_width`-byte words in
/// the same bank, and the access replays once per extra word, so
/// `θ = 1 / max_bank(distinct words)`.
pub fn theta(
    warp_size: u32,
    banks: u32,
    bank_width: u32,
    elem_size: usize,
    stride_bytes: usize,
) -> f64 {
    if stride_bytes == elem_size {
        return 1.0;
    }
    let bw = bank_width as usize;
    let mut words_per_bank: Vec<std::collections::BTreeSet<usize>> =
        vec![std::collections::BTreeSet::new(); banks as usize];
    for lane in 0..warp_size as usize {
        // An element wider than a bank word touches every word it spans,
        // not just the one holding its first byte — an 8 B element at a
        // 4 B bank width occupies two consecutive words, and each one
        // can replay against other lanes.
        let start = lane * stride_bytes;
        let first = start / bw;
        let last = (start + elem_size.max(1) - 1) / bw;
        for word in first..=last {
            words_per_bank[word % banks as usize].insert(word);
        }
    }
    let worst = words_per_bank
        .iter()
        .map(|s| s.len())
        .max()
        .unwrap_or(1)
        .max(1);
    1.0 / worst as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The byte-address `HashMap` implementation the flat vectors
    /// replaced, kept as the model for [`flat_storage_matches_hashmap_model`].
    struct ModelSharedMemory {
        capacity: usize,
        cells: HashMap<usize, (f64, usize)>,
        layout: Layout,
        max_elem: usize,
        bytes_read: u64,
        bytes_written: u64,
        peak_extent: usize,
    }

    impl ModelSharedMemory {
        fn new(capacity: usize) -> Self {
            ModelSharedMemory {
                capacity,
                cells: HashMap::new(),
                layout: Layout::Empty,
                max_elem: 0,
                bytes_read: 0,
                bytes_written: 0,
                peak_extent: 0,
            }
        }

        fn store_cells(
            &mut self,
            addr: usize,
            elem_size: usize,
            count: usize,
            values: Option<&[f64]>,
        ) -> Result<(), String> {
            let extent = addr + count * elem_size;
            if extent > self.capacity {
                return Err(format!(
                    "shared memory overflow: extent {extent} B > capacity {} B",
                    self.capacity
                ));
            }
            let aligned = elem_size > 0 && addr.is_multiple_of(elem_size);
            let uniform = aligned
                && match self.layout {
                    Layout::Empty => true,
                    Layout::Uniform(sz) => sz == elem_size,
                    Layout::Mixed => false,
                };
            if !uniform {
                for i in 0..count {
                    let a = addr + i * elem_size;
                    let lo = a.saturating_sub(self.max_elem.saturating_sub(1));
                    for s in lo..a + elem_size {
                        if s == a {
                            continue;
                        }
                        if let Some(&(_, esz)) = self.cells.get(&s) {
                            if s + esz > a {
                                self.cells.remove(&s);
                            }
                        }
                    }
                }
            }
            for i in 0..count {
                let v = values.map_or(0.0, |vs| vs[i]);
                self.cells.insert(addr + i * elem_size, (v, elem_size));
            }
            self.layout = if uniform {
                Layout::Uniform(elem_size)
            } else {
                Layout::Mixed
            };
            self.max_elem = self.max_elem.max(elem_size);
            self.bytes_written += (count * elem_size) as u64;
            self.peak_extent = self.peak_extent.max(extent);
            Ok(())
        }

        fn load_cells(
            &mut self,
            addr: usize,
            elem_size: usize,
            count: usize,
            mut out: Option<&mut Vec<f64>>,
        ) -> Result<(), String> {
            for i in 0..count {
                let a = addr + i * elem_size;
                match self.cells.get(&a) {
                    Some(&(v, sz)) if sz == elem_size => {
                        if let Some(o) = out.as_deref_mut() {
                            o.push(v);
                        }
                    }
                    Some(&(_, sz)) => {
                        return Err(format!(
                            "shared memory element-size mismatch at byte {a}: \
                             written as {sz} B, read as {elem_size} B"
                        ))
                    }
                    None => return Err(format!("read of uninitialized shared memory at byte {a}")),
                }
            }
            self.bytes_read += (count * elem_size) as u64;
            Ok(())
        }
    }

    /// Random store / store_shape / load / load_shape / reset sequences
    /// over element sizes {1, 2, 4, 8}, aligned and misaligned addresses,
    /// partial overlaps and capacity overflows: values, error strings,
    /// counters and `peak_extent` must equal the `HashMap` model's after
    /// every operation.
    #[test]
    fn flat_storage_matches_hashmap_model() {
        let mut state = 0x5EED_5EEDu64;
        let mut next = move |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        const CAPACITY: usize = 96;
        for seq in 0..2_000 {
            let mut flat = SharedMemory::new(CAPACITY);
            let mut model = ModelSharedMemory::new(CAPACITY);
            // Early sequences stay on one element size, so the uniform
            // fast path runs long before the first mixed store.
            let one_size = seq % 4 == 0;
            for step in 0..48 {
                let elem = if one_size {
                    1usize << (seq / 4 % 4)
                } else {
                    1usize << next(4)
                };
                let addr = if next(3) == 0 {
                    next(CAPACITY as u64) as usize
                } else {
                    next((CAPACITY / elem) as u64) as usize * elem
                };
                let count = next(6) as usize + usize::from(next(8) == 0) * 8;
                let ctx =
                    || format!("seq {seq} step {step}: elem {elem} addr {addr} count {count}");
                match next(10) {
                    0..=3 => {
                        let values: Vec<f64> =
                            (0..count).map(|_| next(1000) as f64 - 500.0).collect();
                        assert_eq!(
                            flat.store(addr, elem, &values),
                            model.store_cells(addr, elem, count, Some(&values)),
                            "{}",
                            ctx()
                        );
                    }
                    4 => assert_eq!(
                        flat.store_shape(addr, elem, count),
                        model.store_cells(addr, elem, count, None),
                        "{}",
                        ctx()
                    ),
                    5..=7 => {
                        let mut want = Vec::new();
                        let want = model
                            .load_cells(addr, elem, count, Some(&mut want))
                            .map(|()| want);
                        assert_eq!(flat.load(addr, elem, count), want, "{}", ctx());
                    }
                    8 => assert_eq!(
                        flat.load_shape(addr, elem, count),
                        model.load_cells(addr, elem, count, None),
                        "{}",
                        ctx()
                    ),
                    _ => {
                        if next(4) == 0 {
                            flat.reset();
                            model = ModelSharedMemory::new(CAPACITY);
                        }
                    }
                }
                assert_eq!(flat.bytes_read(), model.bytes_read, "{}", ctx());
                assert_eq!(flat.bytes_written(), model.bytes_written, "{}", ctx());
                assert_eq!(flat.peak_extent(), model.peak_extent, "{}", ctx());
            }
            // Every byte address reads back the same, at every size.
            for addr in 0..CAPACITY {
                for elem in [1, 2, 4, 8] {
                    let mut want = Vec::new();
                    let want = model
                        .load_cells(addr, elem, 1, Some(&mut want))
                        .map(|()| want);
                    assert_eq!(
                        flat.load(addr, elem, 1),
                        want,
                        "seq {seq}: final sweep at {addr}"
                    );
                }
            }
        }
    }

    #[test]
    fn store_load_roundtrip() {
        let mut sm = SharedMemory::new(1024);
        sm.store(64, 2, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(sm.load(64, 2, 3).unwrap(), vec![1.0, 2.0, 3.0]);
        assert_eq!(sm.bytes_written(), 6);
        assert_eq!(sm.bytes_read(), 6);
        assert_eq!(sm.peak_extent(), 70);
    }

    #[test]
    fn capacity_overflow_detected() {
        let mut sm = SharedMemory::new(16);
        assert!(sm.store(0, 8, &[0.0, 0.0]).is_ok());
        assert!(sm.store(8, 8, &[0.0, 0.0]).is_err());
    }

    #[test]
    fn uninitialized_read_detected() {
        let mut sm = SharedMemory::new(1024);
        assert!(sm.load(0, 4, 1).is_err());
    }

    #[test]
    fn elem_size_mismatch_detected() {
        let mut sm = SharedMemory::new(1024);
        sm.store(0, 8, &[1.0]).unwrap();
        let err = sm.load(0, 4, 1).unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
    }

    #[test]
    fn overwrite_is_allowed() {
        let mut sm = SharedMemory::new(1024);
        sm.store(0, 4, &[1.0]).unwrap();
        sm.store(0, 4, &[2.0]).unwrap();
        assert_eq!(sm.load(0, 4, 1).unwrap(), vec![2.0]);
    }

    #[test]
    fn reset_clears_everything() {
        let mut sm = SharedMemory::new(1024);
        sm.store(0, 4, &[1.0]).unwrap();
        sm.reset();
        assert!(sm.load(0, 4, 1).is_err());
        assert_eq!(sm.bytes_written(), 0);
        assert_eq!(sm.peak_extent(), 0);
    }

    #[test]
    fn shape_only_ops_match_functional_bookkeeping() {
        let mut full = SharedMemory::new(1024);
        let mut shape = SharedMemory::new(1024);
        full.store(0, 8, &[1.0, 2.0]).unwrap();
        shape.store_shape(0, 8, 2).unwrap();
        // Same overlap invalidation through the shape path.
        full.store(4, 4, &[3.0]).unwrap();
        shape.store_shape(4, 4, 1).unwrap();
        assert_eq!(
            full.load(0, 8, 1).unwrap_err(),
            shape.load_shape(0, 8, 1).unwrap_err()
        );
        full.load(4, 4, 1).unwrap();
        shape.load_shape(4, 4, 1).unwrap();
        assert_eq!(full.bytes_written(), shape.bytes_written());
        assert_eq!(full.bytes_read(), shape.bytes_read());
        assert_eq!(full.peak_extent(), shape.peak_extent());
        // Capacity overflow reports identically.
        assert_eq!(
            full.store(1020, 8, &[0.0]).unwrap_err(),
            shape.store_shape(1020, 8, 1).unwrap_err()
        );
    }

    #[test]
    fn contiguous_access_is_conflict_free() {
        // FP32 contiguous: classic conflict-free pattern.
        assert_eq!(theta(32, 32, 4, 4, 4), 1.0);
        // FP16 contiguous: two lanes per bank word but still one pass.
        assert_eq!(theta(32, 32, 4, 2, 2), 1.0);
        // FP64 contiguous: two words per element, no same-phase conflicts.
        assert_eq!(theta(32, 32, 4, 8, 8), 1.0);
    }

    #[test]
    fn wide_then_narrow_overlap_invalidates() {
        let mut sm = SharedMemory::new(1024);
        sm.store(0, 8, &[1.0]).unwrap();
        // Narrow store into the tail of the wide element: the stale
        // 8-byte cell at byte 0 must no longer be readable.
        sm.store(4, 4, &[2.0]).unwrap();
        let err = sm.load(0, 8, 1).unwrap_err();
        assert!(err.contains("uninitialized"), "{err}");
        assert_eq!(sm.load(4, 4, 1).unwrap(), vec![2.0]);
    }

    #[test]
    fn narrow_then_wide_overlap_invalidates() {
        let mut sm = SharedMemory::new(1024);
        sm.store(0, 4, &[1.0]).unwrap();
        sm.store(4, 4, &[2.0]).unwrap();
        // Wide store covering both narrow cells: the one at byte 4 is
        // not at the new start address and must be invalidated, not
        // left readable beside the new 8-byte value.
        sm.store(0, 8, &[3.0]).unwrap();
        let err = sm.load(4, 4, 1).unwrap_err();
        assert!(err.contains("uninitialized"), "{err}");
        assert_eq!(sm.load(0, 8, 1).unwrap(), vec![3.0]);
    }

    #[test]
    fn misaligned_same_size_overlap_invalidates() {
        let mut sm = SharedMemory::new(1024);
        sm.store(0, 4, &[1.0]).unwrap();
        sm.store(2, 4, &[2.0]).unwrap();
        let err = sm.load(0, 4, 1).unwrap_err();
        assert!(err.contains("uninitialized"), "{err}");
        assert_eq!(sm.load(2, 4, 1).unwrap(), vec![2.0]);
    }

    #[test]
    fn large_pow2_stride_conflicts() {
        // Stride of 128 B maps every lane to bank 0: worst case.
        let t = theta(32, 32, 4, 4, 128);
        assert!(t < 0.1, "theta = {t}");
        // Stride 8 B with 4 B elements: 2-way conflict.
        let t = theta(32, 32, 4, 4, 8);
        assert!((t - 0.5).abs() < 1e-9, "theta = {t}");
    }

    #[test]
    fn fp64_strided_theta_counts_every_word_touched() {
        // FP64 elements (8 B) at a 12 B stride on 32 banks × 4 B words:
        // lane l starts at byte 12l, so it touches words {3l, 3l+1}.
        // Over 32 lanes that is 64 distinct words, exactly 2 per bank,
        // so the replay count is 2 and θ = 1/2. Counting only each
        // element's starting word would see 32 words on 32 distinct
        // banks (gcd(3, 32) = 1) and wrongly report θ = 1.
        let t = theta(32, 32, 4, 8, 12);
        assert!((t - 0.5).abs() < 1e-9, "theta = {t}");
        // FP64 at 16 B stride: words {4l, 4l+1}, 4 words per touched
        // bank -> θ = 1/4 (the start-word model agrees here; the 12 B
        // pin above is the discriminating case).
        let t = theta(32, 32, 4, 8, 16);
        assert!((t - 0.25).abs() < 1e-9, "theta = {t}");
    }
}
