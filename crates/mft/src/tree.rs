//! The Message Field Tree and its transformations (paper §IV-C/D, Fig. 5).

use firmres_dataflow::{FieldSource, TaintNodeKind, TaintTree};
use firmres_ir::{Address, PcodeOp};
use std::fmt::Write as _;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over whatever is written into it, so a `Display` value hashes
/// without being rendered to a `String` first.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ *b as u64).wrapping_mul(FNV_PRIME);
        }
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Identifier of a node within an [`Mft`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MftNodeId(pub usize);

/// What an MFT node represents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MftNodeKind {
    /// The message argument at the delivery callsite.
    Root {
        /// Delivery function name.
        delivery: String,
    },
    /// A field-concatenation step (a write into the message buffer).
    Concat {
        /// The writer (`sprintf`, `strcat`, `cJSON_AddStringToObject`, a
        /// raw store, …).
        via: String,
    },
    /// Field encoding / formatting / plumbing on the path (copies,
    /// arithmetic, pass-through calls). Removed by simplification.
    Op {
        /// Display label for the operation.
        label: String,
    },
    /// A terminal field source (leaf).
    Field(FieldSource),
    /// A semantic annotation attached after classification (§IV-D: "we
    /// add the annotation of the identified semantics of the field as a
    /// new leaf node").
    Annotation(String),
}

/// One node of the [`Mft`].
#[derive(Debug, Clone)]
pub struct MftNode {
    /// This node's id.
    pub id: MftNodeId,
    /// Parent id (None for the root).
    pub parent: Option<MftNodeId>,
    /// Children in current order.
    pub children: Vec<MftNodeId>,
    /// Node kind.
    pub kind: MftNodeKind,
    /// The associated IR operation, when there is one.
    pub op: Option<PcodeOp>,
    /// Function the node was discovered in.
    pub func: Address,
}

/// The Message Field Tree.
///
/// # Examples
///
/// ```
/// use firmres_mft::Mft;
/// use firmres_dataflow::TaintEngine;
/// use firmres_isa::{Assembler, lift};
///
/// let exe = Assembler::new().assemble(r#"
/// .func main
///     la a1, msg
///     li a0, 1
///     callx SSL_write
///     ret
/// .endfunc
/// .data
/// msg: .asciz "PING"
/// "#)?;
/// let prog = lift(&exe, "d")?;
/// let f = prog.function_by_name("main").unwrap();
/// let call = f.callsites().next().unwrap().addr;
/// let tree = TaintEngine::new(&prog).trace(f.entry(), call, 1);
/// let mft = Mft::from_taint(&tree);
/// assert_eq!(mft.leaves().len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Mft {
    nodes: Vec<MftNode>,
}

impl Mft {
    /// Build an MFT from a backward-taint trace.
    pub fn from_taint(tree: &TaintTree) -> Mft {
        let mut mft = Mft::default();
        for n in tree.nodes() {
            let kind = match &n.kind {
                TaintNodeKind::Root { delivery } => MftNodeKind::Root {
                    delivery: delivery.clone(),
                },
                TaintNodeKind::Write { via } => MftNodeKind::Concat { via: via.clone() },
                TaintNodeKind::Transform { opcode } => MftNodeKind::Op {
                    label: opcode.mnemonic().to_string(),
                },
                TaintNodeKind::ThroughCall { callee } => MftNodeKind::Op {
                    label: format!("call {callee}"),
                },
                TaintNodeKind::ParamCross { param } => MftNodeKind::Op {
                    label: format!("param #{param}"),
                },
                TaintNodeKind::Source(s) => MftNodeKind::Field(s.clone()),
            };
            mft.nodes.push(MftNode {
                id: MftNodeId(n.id.0),
                parent: n.parent.map(|p| MftNodeId(p.0)),
                children: n.children.iter().map(|c| MftNodeId(c.0)).collect(),
                kind,
                op: n.op.clone(),
                func: n.func,
            });
        }
        mft
    }

    /// Rebuild an MFT from an explicit node list, e.g. when decoding a
    /// persisted analysis. Node ids must be dense (node `i` has id `i`,
    /// the root at index 0) and parent/children links consistent — the
    /// layout [`Mft::nodes`] hands out.
    ///
    /// # Panics
    ///
    /// Panics when a node's id does not match its index.
    pub fn from_nodes(nodes: Vec<MftNode>) -> Mft {
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(n.id.0, i, "node ids must be dense and in order");
        }
        Mft { nodes }
    }

    /// The root node.
    ///
    /// # Panics
    ///
    /// Panics on an empty tree.
    pub fn root(&self) -> &MftNode {
        &self.nodes[0]
    }

    /// The node with id `id`.
    pub fn node(&self, id: MftNodeId) -> &MftNode {
        &self.nodes[id.0]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[MftNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Leaf node ids ([`MftNodeKind::Field`]) in depth-first order — the
    /// message fields as currently ordered.
    pub fn leaves(&self) -> Vec<MftNodeId> {
        let mut out = Vec::new();
        if self.nodes.is_empty() {
            return out;
        }
        self.dfs_leaves(MftNodeId(0), &mut out);
        out
    }

    fn dfs_leaves(&self, id: MftNodeId, out: &mut Vec<MftNodeId>) {
        let n = &self.nodes[id.0];
        if matches!(n.kind, MftNodeKind::Field(_)) {
            out.push(id);
        }
        for c in &n.children {
            self.dfs_leaves(*c, out);
        }
    }

    /// Field sources at the leaves, in depth-first order.
    pub fn field_sources(&self) -> Vec<&FieldSource> {
        self.leaves()
            .into_iter()
            .filter_map(|id| match &self.nodes[id.0].kind {
                MftNodeKind::Field(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    /// The paper's simplification (Fig. 5): keep the root, branching nodes
    /// (more than one child), concatenation nodes, leaves and annotations;
    /// splice out pass-through chain nodes.
    pub fn simplified(&self) -> Mft {
        if self.nodes.is_empty() {
            return Mft::default();
        }
        let mut out = Mft::default();
        let root = &self.nodes[0];
        let new_root = MftNode {
            id: MftNodeId(0),
            parent: None,
            children: Vec::new(),
            kind: root.kind.clone(),
            op: root.op.clone(),
            func: root.func,
        };
        out.nodes.push(new_root);
        for c in &root.children {
            self.copy_simplified(*c, MftNodeId(0), &mut out);
        }
        out
    }

    fn keeps(&self, id: MftNodeId) -> bool {
        let n = &self.nodes[id.0];
        match &n.kind {
            MftNodeKind::Root { .. } | MftNodeKind::Field(_) | MftNodeKind::Annotation(_) => true,
            MftNodeKind::Concat { .. } => true,
            MftNodeKind::Op { .. } => n.children.len() > 1,
        }
    }

    fn copy_simplified(&self, id: MftNodeId, parent: MftNodeId, out: &mut Mft) {
        let n = &self.nodes[id.0];
        if self.keeps(id) {
            let new_id = MftNodeId(out.nodes.len());
            out.nodes.push(MftNode {
                id: new_id,
                parent: Some(parent),
                children: Vec::new(),
                kind: n.kind.clone(),
                op: n.op.clone(),
                func: n.func,
            });
            out.nodes[parent.0].children.push(new_id);
            for c in &n.children {
                self.copy_simplified(*c, new_id, out);
            }
        } else {
            // Splice: attach this node's children directly to `parent`.
            for c in &n.children {
                self.copy_simplified(*c, parent, out);
            }
        }
    }

    /// The paper's inversion: reverse every node's child order. Backward
    /// taint discovers the *latest* concatenation first; inverting the
    /// simplified MFT puts fields into construction order.
    pub fn inverted(&self) -> Mft {
        let mut out = self.clone();
        for n in &mut out.nodes {
            n.children.reverse();
        }
        out
    }

    /// Attach a semantic annotation as a new child of `leaf`'s parent
    /// path (directly under the leaf).
    pub fn annotate(&mut self, leaf: MftNodeId, text: impl Into<String>) {
        let id = MftNodeId(self.nodes.len());
        let func = self.nodes[leaf.0].func;
        self.nodes.push(MftNode {
            id,
            parent: Some(leaf),
            children: Vec::new(),
            kind: MftNodeKind::Annotation(text.into()),
            op: None,
            func,
        });
        self.nodes[leaf.0].children.push(id);
    }

    /// A stable hash of the path from the root to `leaf` (used for field
    /// grouping, §IV-D: "assigns a hash value to each path for efficient
    /// matching").
    pub fn path_hash(&self, leaf: MftNodeId) -> u64 {
        let mut path = Vec::new();
        let mut cur = Some(leaf);
        while let Some(id) = cur {
            path.push(id);
            cur = self.nodes[id.0].parent;
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for id in path.iter().rev() {
            let label = match &self.nodes[id.0].kind {
                MftNodeKind::Root { delivery } => delivery.clone(),
                MftNodeKind::Concat { via } => via.clone(),
                MftNodeKind::Op { label } => label.clone(),
                MftNodeKind::Field(s) => s.to_string(),
                MftNodeKind::Annotation(a) => a.clone(),
            };
            for b in label.as_bytes() {
                h ^= *b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h ^= self.nodes[id.0].children.len() as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// [`Mft::path_hash`] of every node at once, indexed by node id.
    ///
    /// The fold is the same FNV walk, root first, but each node extends
    /// its parent's prefix hash instead of re-walking its whole path, and
    /// labels stream into the hash without being cloned. One pass over
    /// the nodes replaces one path walk per leaf.
    pub fn path_hashes(&self) -> Vec<u64> {
        let mut hashes = vec![0; self.nodes.len()];
        let mut done = vec![false; self.nodes.len()];
        let mut pending = Vec::new();
        for start in 0..self.nodes.len() {
            // Climb to the nearest node whose prefix is known (or past
            // the root), then fold back down. Each node is folded once.
            let mut cur = Some(start);
            while let Some(id) = cur.filter(|&id| !done[id]) {
                pending.push(id);
                cur = self.nodes[id].parent.map(|p| p.0);
            }
            let mut h = cur.map_or(FNV_OFFSET, |id| hashes[id]);
            while let Some(id) = pending.pop() {
                h = self.fold_node(h, id);
                hashes[id] = h;
                done[id] = true;
            }
        }
        hashes
    }

    /// One step of the path-hash fold: node `id`'s label bytes, then its
    /// child count.
    fn fold_node(&self, h: u64, id: usize) -> u64 {
        let node = &self.nodes[id];
        let mut fnv = Fnv(h);
        match &node.kind {
            MftNodeKind::Root { delivery: label }
            | MftNodeKind::Concat { via: label }
            | MftNodeKind::Op { label }
            | MftNodeKind::Annotation(label) => fnv.bytes(label.as_bytes()),
            MftNodeKind::Field(s) => write!(fnv, "{s}").expect("hashing cannot fail"),
        }
        (fnv.0 ^ node.children.len() as u64).wrapping_mul(FNV_PRIME)
    }

    /// ASCII rendering for reports and the Fig. 5 demonstration binary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.nodes.is_empty() {
            return out;
        }
        self.render_node(MftNodeId(0), 0, &mut out);
        out
    }

    fn render_node(&self, id: MftNodeId, depth: usize, out: &mut String) {
        let n = &self.nodes[id.0];
        let label = match &n.kind {
            MftNodeKind::Root { delivery } => format!("ROOT [{delivery}]"),
            MftNodeKind::Concat { via } => format!("CONCAT via {via}"),
            MftNodeKind::Op { label } => format!("op {label}"),
            MftNodeKind::Field(s) => format!("FIELD {s}"),
            MftNodeKind::Annotation(a) => format!("@{a}"),
        };
        let _ = writeln!(out, "{}{}", "  ".repeat(depth), label);
        for c in &n.children {
            self.render_node(*c, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmres_dataflow::TaintEngine;
    use firmres_isa::{lift, Assembler};

    fn build_mft(src: &str, delivery: &str, arg: usize) -> Mft {
        let exe = Assembler::new().assemble(src).unwrap();
        let p = lift(&exe, "t").unwrap();
        let mut found = None;
        for f in p.functions() {
            for c in f.callsites() {
                if c.call_target().and_then(|t| p.callee_name(t)) == Some(delivery) {
                    found = Some((f.entry(), c.addr));
                }
            }
        }
        let (func, call) = found.unwrap();
        let tree = TaintEngine::new(&p).trace(func, call, arg);
        Mft::from_taint(&tree)
    }

    const CONCAT_SRC: &str = r#"
.func main
.local buf 128
    lea a0, buf
    la  a1, first
    callx strcpy
    lea a0, buf
    la  a1, second
    callx strcat
    lea a0, buf
    la  a1, third
    callx strcat
    lea a1, buf
    li  a0, 1
    callx SSL_write
    ret
.endfunc
.data
first: .asciz "A"
second: .asciz "B"
third: .asciz "C"
"#;

    #[test]
    fn inversion_restores_construction_order() {
        let mft = build_mft(CONCAT_SRC, "SSL_write", 1);
        // Backward discovery: C, B, A.
        let before: Vec<String> = mft.field_sources().iter().map(|s| s.to_string()).collect();
        assert_eq!(before, vec!["\"C\"", "\"B\"", "\"A\""]);
        // Inverted: A, B, C — the order the message was built in.
        let inv = mft.simplified().inverted();
        let after: Vec<String> = inv.field_sources().iter().map(|s| s.to_string()).collect();
        assert_eq!(after, vec!["\"A\"", "\"B\"", "\"C\""]);
    }

    #[test]
    fn simplification_drops_pass_through_ops() {
        let mft = build_mft(CONCAT_SRC, "SSL_write", 1);
        let simple = mft.simplified();
        assert!(simple.len() <= mft.len());
        assert!(
            simple
                .nodes()
                .iter()
                .all(|n| !matches!(&n.kind, MftNodeKind::Op { .. }) || n.children.len() > 1),
            "remaining op nodes are branching"
        );
        // Leaves survive simplification.
        assert_eq!(simple.leaves().len(), mft.leaves().len());
    }

    #[test]
    fn double_inversion_is_identity_on_field_order() {
        let mft = build_mft(CONCAT_SRC, "SSL_write", 1).simplified();
        let once: Vec<String> = mft
            .inverted()
            .field_sources()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let twice: Vec<String> = mft
            .inverted()
            .inverted()
            .field_sources()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let orig: Vec<String> = mft.field_sources().iter().map(|s| s.to_string()).collect();
        assert_eq!(twice, orig);
        assert_ne!(once, orig, "one inversion changes the order here");
    }

    #[test]
    fn annotations_are_attached_and_rendered() {
        let mut mft = build_mft(CONCAT_SRC, "SSL_write", 1);
        let leaf = mft.leaves()[0];
        mft.annotate(leaf, "Dev-Identifier");
        let rendered = mft.render();
        assert!(rendered.contains("@Dev-Identifier"), "{rendered}");
        assert!(rendered.contains("ROOT [SSL_write]"));
        assert!(rendered.contains("CONCAT via strcat"));
    }

    #[test]
    fn path_hashes_distinguish_leaves_and_are_stable() {
        let mft = build_mft(CONCAT_SRC, "SSL_write", 1);
        let leaves = mft.leaves();
        assert!(leaves.len() >= 2);
        let h0 = mft.path_hash(leaves[0]);
        let h1 = mft.path_hash(leaves[1]);
        assert_ne!(h0, h1);
        assert_eq!(h0, mft.path_hash(leaves[0]));
    }

    #[test]
    fn from_nodes_round_trips_a_real_tree() {
        let mft = build_mft(CONCAT_SRC, "SSL_write", 1);
        let rebuilt = Mft::from_nodes(mft.nodes().to_vec());
        assert_eq!(rebuilt.render(), mft.render());
        assert_eq!(rebuilt.leaves(), mft.leaves());
    }

    #[test]
    fn empty_tree_operations() {
        let mft = Mft::default();
        assert!(mft.is_empty());
        assert!(mft.leaves().is_empty());
        assert_eq!(mft.render(), "");
        assert!(mft.simplified().is_empty());
    }
}
