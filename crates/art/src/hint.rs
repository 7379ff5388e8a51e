//! Prefetch-only descents: see [`DescentHint`].

use crate::node::{Node, NodeId};
use crate::Art;

/// A prefetch-only descent cursor: it walks toward a key's leaf one cache
/// miss at a time, requesting each node's lines some operations before
/// the real traversal reads them. Built by [`Art::hint_start`], moved by
/// [`Art::hint_step`].
///
/// A batch executor knows its operations in advance, so it can keep a few
/// of these cursors in flight and step each once per operation it runs:
/// by the time an operation's own traversal starts, the nodes on its path
/// have arrived. Each step either *arms* (the node's arena slot is
/// resident; request its prefix bytes and the child-array lines the
/// lookup will read) or *advances* (those lines are resident; read the
/// child and request its arena slot), so a step never waits on the line
/// the previous step requested.
///
/// A hint changes nothing observable. It reads the tree only through the
/// checked arena accessor, compares no prefix, validates nothing and never
/// panics: between two steps the tree may have grown, split, merged or
/// freed the node the cursor stands on, and a stale, freed or reused id
/// merely ends the hint early or sends it down a wrong (harmless) path.
#[derive(Clone, Copy, Debug)]
pub struct DescentHint {
    /// The node the cursor stands on (possibly stale).
    node: NodeId,
    /// Key bytes consumed above `node`.
    depth: u32,
    /// Whether `node`'s lookup lines have been requested.
    armed: bool,
}

impl<V> Art<V> {
    /// A descent hint standing on the root (or on nothing, in an empty
    /// tree: its first step ends it).
    pub fn hint_start(&self) -> DescentHint {
        let node = self.root().unwrap_or_default();
        self.arena.prefetch(node);
        DescentHint { node, depth: 0, armed: false }
    }

    /// Moves `hint` one step toward the leaf of `key`: arms the node it
    /// stands on or advances to the child. Returns `false` once there is
    /// nothing left to prefetch (a leaf, a missing child, a key too short
    /// for the path, or a freed id); the caller drops the hint then.
    pub fn hint_step(&self, hint: &mut DescentHint, key: &[u8]) -> bool {
        let Some(Node::Inner(inner)) = self.arena.try_get(hint.node) else {
            return false;
        };
        let next = hint.depth as usize + inner.prefix.len();
        let Some(&byte) = key.get(next) else {
            return false;
        };
        if !hint.armed {
            if let Some(first) = inner.prefix.first() {
                crate::simd::prefetch(first);
            }
            inner.children.prefetch_find(byte);
            hint.armed = true;
            return true;
        }
        let Some(child) = inner.children.find(byte) else {
            return false;
        };
        self.arena.prefetch(child);
        *hint = DescentHint { node: child, depth: next as u32 + 1, armed: false };
        true
    }
}

#[cfg(test)]
mod tests {
    use crate::{Art, Key};
    use rand::{Rng, SeedableRng};

    /// Hints interleaved with random inserts and removes — growth from N4
    /// to N256, prefix splits, freed and reused slots, the tree emptied
    /// and refilled — never panic, and a tree driven with hints equals a
    /// hint-free twin after every operation.
    #[test]
    fn hints_survive_any_interleaving_and_change_nothing() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let (rounds, ops) = if cfg!(miri) { (2, 300) } else { (6, 4_000) };
        for round in 0..rounds {
            let mut art: Art<u64> = Art::new();
            let mut twin: Art<u64> = Art::new();
            // Narrow key spaces collide and split prefixes; wide ones fan a
            // byte out to N256.
            let span: u64 = [16, 300, 70_000][round % 3];
            let key = |v: u64| match round % 2 {
                0 => Key::from_u64(v.wrapping_mul(0x0101_0101)),
                _ => Key::from_str_bytes(&format!("k{v:x}")),
            };
            let mut hints = Vec::new();
            for i in 0..ops {
                let v = rng.gen_range(0..span);
                if rng.gen_bool(0.3) {
                    assert_eq!(art.remove(&key(v)), twin.remove(&key(v)));
                } else {
                    assert_eq!(
                        art.insert(key(v), i as u64).unwrap(),
                        twin.insert(key(v), i as u64).unwrap()
                    );
                }
                if i % 5 == 0 {
                    hints.push((art.hint_start(), rng.gen_range(0..span)));
                }
                hints.retain_mut(|(hint, v)| art.hint_step(hint, key(*v).as_bytes()));
                // Empty the tree now and then, so hints outlive every node.
                if i % 1_000 == 999 {
                    let all: Vec<Key> = twin.iter().map(|(k, _)| k.clone()).collect();
                    for k in &all {
                        assert_eq!(art.remove(k), twin.remove(k));
                    }
                    assert!(art.is_empty());
                    hints.retain_mut(|(hint, v)| art.hint_step(hint, key(*v).as_bytes()));
                    assert!(hints.is_empty(), "an empty tree ends every hint");
                }
                // Stale ids and keys shorter than the path end hints too.
                if i % 97 == 0 {
                    let mut short = art.hint_start();
                    while art.hint_step(&mut short, &[]) {}
                }
            }
            art.assert_invariants();
            assert_eq!(art.len(), twin.len());
            for (k, v) in twin.iter() {
                assert_eq!(art.get(k), Some(v));
            }
        }
    }

    #[test]
    fn a_hint_walks_to_the_leaf_of_its_key() {
        let art: Art<u64> = (0..5_000u64).map(|v| (Key::from_u64(v * 977), v)).collect();
        let key = Key::from_u64(977 * 1_234);
        let mut hint = art.hint_start();
        let mut steps = 0;
        while art.hint_step(&mut hint, key.as_bytes()) {
            steps += 1;
        }
        let mut tracer = crate::RecordingTracer::new();
        art.get_traced(&key, &mut tracer).unwrap();
        // Two steps (arm, advance) per inner node on the path.
        assert_eq!(steps, 2 * (tracer.trace.visits.len() - 1));
        assert_eq!(Some(hint.node), tracer.trace.target);
    }
}
