//! A persistent-memory B+-tree, the global index SLM-DB keeps in PMem.
//!
//! PMem-friendly design in the spirit of FAST&FAIR/NBTree: leaf entries are
//! *unsorted* (an insert appends one key slot and one value slot instead of
//! shifting), interior nodes are sorted and rewritten only on the rare
//! split. All node bytes live in a [`PmemSpace`], so every access pays
//! simulated PMem cost and every update follows the space's flush
//! discipline.
//!
//! Keys are bounded at [`MAX_KEY`] bytes (workload keys are 16 B); values
//! are fixed 16-byte payloads (SLM-DB stores KV *locations*, not bytes).

use cachekv_lsm::{Error, MemSpace, PmemSpace, Result};

/// Maximum key length storable in a node slot.
pub(crate) const MAX_KEY: usize = 24;
/// Fixed value payload size.
pub const VAL: usize = 16;
/// Keys per node.
const FANOUT: usize = 20;
/// Node slot size in the region.
const NODE: u64 = 1024;

const KEY_SLOT: usize = 1 + MAX_KEY; // klen u8 + bytes
const HDR: usize = 8; // [is_leaf u8][count u8][pad u16][next_leaf u32]

/// Offsets within a node.
const KEYS_OFF: usize = HDR;
const PAYLOAD_OFF: usize = HDR + FANOUT * KEY_SLOT;

/// Region header: `[magic u32][root u32][next_free u32][pad]`.
const META_MAGIC: u32 = 0xB7EE_0001;

#[derive(Clone)]
struct Node {
    id: u32,
    is_leaf: bool,
    count: usize,
    next_leaf: u32,
    keys: Vec<Vec<u8>>,      // count entries
    payload: Vec<[u8; VAL]>, // leaf: count values
    children: Vec<u32>,      // interior: count+1 children
}

impl Node {
    fn leaf(id: u32) -> Self {
        Node {
            id,
            is_leaf: true,
            count: 0,
            next_leaf: 0,
            keys: vec![],
            payload: vec![],
            children: vec![],
        }
    }
}

/// The B+-tree handle. Externally synchronized (SLM-DB's global mutex).
pub struct BpTree {
    space: PmemSpace,
    root: u32,
    next_free: u32,
    max_nodes: u32,
    len: usize,
}

impl BpTree {
    /// Create an empty tree in `space`.
    pub fn create(space: PmemSpace) -> Self {
        let max_nodes = (space.capacity() / NODE) as u32;
        assert!(max_nodes >= 4, "B+-tree region too small");
        let t = BpTree {
            space,
            root: 1,
            next_free: 2,
            max_nodes,
            len: 0,
        };
        let root = Node::leaf(1);
        t.write_node(&root);
        t.write_meta();
        t
    }

    fn write_meta(&self) {
        let mut b = [0u8; 16];
        b[0..4].copy_from_slice(&META_MAGIC.to_le_bytes());
        b[4..8].copy_from_slice(&self.root.to_le_bytes());
        b[8..12].copy_from_slice(&self.next_free.to_le_bytes());
        self.space.write(0, &b);
        self.space.persist(0, 16);
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn alloc_node(&mut self) -> Result<u32> {
        if self.next_free >= self.max_nodes {
            return Err(Error::OutOfSpace("B+-tree node region".into()));
        }
        let id = self.next_free;
        self.next_free += 1;
        Ok(id)
    }

    fn read_node(&self, id: u32) -> Node {
        let mut raw = vec![0u8; NODE as usize];
        self.space.read(id as u64 * NODE, &mut raw);
        let is_leaf = raw[0] == 1;
        let count = raw[1] as usize;
        let next_leaf = u32::from_le_bytes(raw[4..8].try_into().unwrap());
        let mut keys = Vec::with_capacity(count);
        for i in 0..count {
            let s = KEYS_OFF + i * KEY_SLOT;
            let klen = raw[s] as usize;
            keys.push(raw[s + 1..s + 1 + klen].to_vec());
        }
        let mut payload = Vec::new();
        let mut children = Vec::new();
        if is_leaf {
            for i in 0..count {
                let s = PAYLOAD_OFF + i * VAL;
                payload.push(raw[s..s + VAL].try_into().unwrap());
            }
        } else {
            for i in 0..=count {
                let s = PAYLOAD_OFF + i * 4;
                children.push(u32::from_le_bytes(raw[s..s + 4].try_into().unwrap()));
            }
        }
        Node {
            id,
            is_leaf,
            count,
            next_leaf,
            keys,
            payload,
            children,
        }
    }

    fn write_node(&self, n: &Node) {
        let mut raw = vec![0u8; NODE as usize];
        raw[0] = n.is_leaf as u8;
        raw[1] = n.count as u8;
        raw[4..8].copy_from_slice(&n.next_leaf.to_le_bytes());
        for (i, k) in n.keys.iter().enumerate() {
            let s = KEYS_OFF + i * KEY_SLOT;
            raw[s] = k.len() as u8;
            raw[s + 1..s + 1 + k.len()].copy_from_slice(k);
        }
        if n.is_leaf {
            for (i, v) in n.payload.iter().enumerate() {
                let s = PAYLOAD_OFF + i * VAL;
                raw[s..s + VAL].copy_from_slice(v);
            }
        } else {
            for (i, c) in n.children.iter().enumerate() {
                let s = PAYLOAD_OFF + i * 4;
                raw[s..s + 4].copy_from_slice(&c.to_le_bytes());
            }
        }
        self.space.write(n.id as u64 * NODE, &raw);
        self.space.persist(n.id as u64 * NODE, NODE as usize);
    }

    /// Targeted in-place leaf append: one key slot, one value slot, header.
    fn append_leaf_slot(&self, n: &Node, key: &[u8], val: &[u8; VAL]) {
        let base = n.id as u64 * NODE;
        let i = n.count;
        let mut kslot = [0u8; KEY_SLOT];
        kslot[0] = key.len() as u8;
        kslot[1..1 + key.len()].copy_from_slice(key);
        self.space
            .write(base + (KEYS_OFF + i * KEY_SLOT) as u64, &kslot);
        self.space
            .persist(base + (KEYS_OFF + i * KEY_SLOT) as u64, KEY_SLOT);
        self.space.write(base + (PAYLOAD_OFF + i * VAL) as u64, val);
        self.space
            .persist(base + (PAYLOAD_OFF + i * VAL) as u64, VAL);
        // Publish by bumping the count last (crash-safe append).
        self.space.write(base + 1, &[(n.count + 1) as u8]);
        self.space.persist(base + 1, 1);
    }

    fn overwrite_leaf_value(&self, n: &Node, slot: usize, val: &[u8; VAL]) {
        let base = n.id as u64 * NODE;
        self.space
            .write(base + (PAYLOAD_OFF + slot * VAL) as u64, val);
        self.space
            .persist(base + (PAYLOAD_OFF + slot * VAL) as u64, VAL);
    }

    /// Find the leaf for `key`, recording the descent path `(node, child
    /// index)` for split propagation.
    fn descend(&self, key: &[u8]) -> (Node, Vec<(Node, usize)>) {
        let mut path = Vec::new();
        let mut cur = self.read_node(self.root);
        while !cur.is_leaf {
            // Sorted interior node: first key > target decides the child.
            let idx = cur.keys.partition_point(|k| k.as_slice() <= key);
            let child = cur.children[idx];
            path.push((cur, idx));
            cur = self.read_node(child);
        }
        (cur, path)
    }

    /// Insert or overwrite. Returns the previous value if the key existed.
    pub fn insert(&mut self, key: &[u8], val: &[u8; VAL]) -> Result<Option<[u8; VAL]>> {
        assert!(key.len() <= MAX_KEY, "key exceeds B+-tree slot size");
        assert!(!key.is_empty(), "empty key");
        let (leaf, path) = self.descend(key);
        // Unsorted leaf: linear probe for overwrite.
        for i in 0..leaf.count {
            if leaf.keys[i] == key {
                let old = leaf.payload[i];
                self.overwrite_leaf_value(&leaf, i, val);
                return Ok(Some(old));
            }
        }
        if leaf.count < FANOUT {
            self.append_leaf_slot(&leaf, key, val);
            self.len += 1;
            return Ok(None);
        }
        // Split: sort, halve, write both, propagate the separator.
        let mut pairs: Vec<(Vec<u8>, [u8; VAL])> =
            leaf.keys.into_iter().zip(leaf.payload).collect();
        pairs.push((key.to_vec(), *val));
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let mid = pairs.len() / 2;
        let right_id = self.alloc_node()?;
        let sep = pairs[mid].0.clone();
        let right_pairs = pairs.split_off(mid);

        let right = Node {
            id: right_id,
            is_leaf: true,
            count: right_pairs.len(),
            next_leaf: leaf.next_leaf,
            keys: right_pairs.iter().map(|p| p.0.clone()).collect(),
            payload: right_pairs.iter().map(|p| p.1).collect(),
            children: vec![],
        };
        let left = Node {
            id: leaf.id,
            is_leaf: true,
            count: pairs.len(),
            next_leaf: right_id,
            keys: pairs.iter().map(|p| p.0.clone()).collect(),
            payload: pairs.iter().map(|p| p.1).collect(),
            children: vec![],
        };
        self.write_node(&right);
        self.write_node(&left);
        self.len += 1;
        self.insert_separator(path, sep, right_id)
    }

    /// Propagate a separator key up the recorded path.
    fn insert_separator(
        &mut self,
        mut path: Vec<(Node, usize)>,
        mut sep: Vec<u8>,
        mut right_id: u32,
    ) -> Result<Option<[u8; VAL]>> {
        loop {
            match path.pop() {
                None => {
                    // Split reached the root: grow the tree.
                    let new_root_id = self.alloc_node()?;
                    let new_root = Node {
                        id: new_root_id,
                        is_leaf: false,
                        count: 1,
                        next_leaf: 0,
                        keys: vec![sep],
                        payload: vec![],
                        children: vec![self.root, right_id],
                    };
                    self.write_node(&new_root);
                    self.root = new_root_id;
                    self.write_meta();
                    return Ok(None);
                }
                Some((mut parent, idx)) => {
                    parent.keys.insert(idx, sep);
                    parent.children.insert(idx + 1, right_id);
                    parent.count += 1;
                    if parent.count <= FANOUT {
                        self.write_node(&parent);
                        return Ok(None);
                    }
                    // Interior split.
                    let mid = parent.count / 2;
                    let up = parent.keys[mid].clone();
                    let new_id = self.alloc_node()?;
                    let right_keys = parent.keys.split_off(mid + 1);
                    let promoted = parent.keys.pop().expect("mid key");
                    debug_assert_eq!(promoted, up);
                    let right_children = parent.children.split_off(mid + 1);
                    let right = Node {
                        id: new_id,
                        is_leaf: false,
                        count: right_keys.len(),
                        next_leaf: 0,
                        keys: right_keys,
                        payload: vec![],
                        children: right_children,
                    };
                    parent.count = parent.keys.len();
                    self.write_node(&right);
                    self.write_node(&parent);
                    sep = up;
                    right_id = new_id;
                }
            }
        }
    }

    /// Look up `key`.
    pub fn get(&self, key: &[u8]) -> Option<[u8; VAL]> {
        let (leaf, _) = self.descend(key);
        (0..leaf.count)
            .find(|&i| leaf.keys[i] == key)
            .map(|i| leaf.payload[i])
    }

    /// All `(key, value)` pairs in ascending key order (tests and GC).
    pub fn scan_all(&self) -> Vec<(Vec<u8>, [u8; VAL])> {
        // Find the leftmost leaf.
        let mut cur = self.read_node(self.root);
        while !cur.is_leaf {
            cur = self.read_node(cur.children[0]);
        }
        let mut out = Vec::with_capacity(self.len);
        loop {
            let mut pairs: Vec<(Vec<u8>, [u8; VAL])> = cur
                .keys
                .iter()
                .cloned()
                .zip(cur.payload.iter().copied())
                .collect();
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            out.extend(pairs);
            if cur.next_leaf == 0 {
                break;
            }
            cur = self.read_node(cur.next_leaf);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachekv_cache::{CacheConfig, Hierarchy};
    use cachekv_lsm::FlushMode;
    use cachekv_pmem::{PmemConfig, PmemDevice};
    use std::sync::Arc;

    fn tree(mode: FlushMode) -> BpTree {
        let dev = Arc::new(PmemDevice::new(
            PmemConfig::paper_scaled().with_latency(cachekv_pmem::LatencyConfig::zero()),
        ));
        let hier = Arc::new(Hierarchy::new(dev, CacheConfig::small()));
        BpTree::create(PmemSpace::new(hier, 0, 8 << 20, mode))
    }

    fn val(i: u64) -> [u8; VAL] {
        let mut v = [0u8; VAL];
        v[..8].copy_from_slice(&i.to_le_bytes());
        v
    }

    #[test]
    fn insert_get_small() {
        let mut t = tree(FlushMode::Clflush);
        assert!(t.insert(b"b", &val(2)).unwrap().is_none());
        assert!(t.insert(b"a", &val(1)).unwrap().is_none());
        assert_eq!(t.get(b"a"), Some(val(1)));
        assert_eq!(t.get(b"b"), Some(val(2)));
        assert_eq!(t.get(b"c"), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn overwrite_returns_old() {
        let mut t = tree(FlushMode::Clflush);
        t.insert(b"k", &val(1)).unwrap();
        let old = t.insert(b"k", &val(2)).unwrap();
        assert_eq!(old, Some(val(1)));
        assert_eq!(t.get(b"k"), Some(val(2)));
        assert_eq!(t.len(), 1, "overwrite is not a new key");
    }

    #[test]
    fn thousands_of_keys_split_correctly() {
        let mut t = tree(FlushMode::None);
        let n = 5_000u64;
        for i in 0..n {
            t.insert(format!("user{:010}", i * 7 % n).as_bytes(), &val(i))
                .unwrap();
        }
        assert_eq!(t.len() as u64, n);
        for i in 0..n {
            let k = format!("user{:010}", i);
            assert!(t.get(k.as_bytes()).is_some(), "missing {k}");
        }
    }

    #[test]
    fn scan_is_sorted_and_complete() {
        let mut t = tree(FlushMode::None);
        let mut keys: Vec<String> = (0..500).map(|i| format!("k{:06}", i * 13 % 500)).collect();
        for (i, k) in keys.iter().enumerate() {
            t.insert(k.as_bytes(), &val(i as u64)).unwrap();
        }
        keys.sort();
        keys.dedup();
        let scanned: Vec<Vec<u8>> = t.scan_all().into_iter().map(|(k, _)| k).collect();
        assert_eq!(scanned.len(), keys.len());
        assert!(
            scanned.windows(2).all(|w| w[0] < w[1]),
            "strictly ascending"
        );
    }

    #[test]
    fn region_exhaustion_errors() {
        let dev = Arc::new(PmemDevice::new(PmemConfig::small()));
        let hier = Arc::new(Hierarchy::new(dev, CacheConfig::small()));
        // Room for only a handful of nodes.
        let mut t = BpTree::create(PmemSpace::new(hier, 0, 8 * 1024, FlushMode::None));
        let mut failed = false;
        for i in 0..10_000u64 {
            if t.insert(format!("key{i:08}").as_bytes(), &val(i)).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "tiny region must run out of nodes");
    }

    #[test]
    #[should_panic(expected = "exceeds B+-tree slot size")]
    fn oversized_key_panics() {
        let mut t = tree(FlushMode::None);
        let _ = t.insert(&[7u8; MAX_KEY + 1], &val(0));
    }
}
