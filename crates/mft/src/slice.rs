//! Code-slice extraction in the semantically enriched P-Code form.
//!
//! Each root-to-leaf path of the MFT yields a slice: the IR operations on
//! the path rendered as `(Datatype, Name/Constant, NodeID)` triples
//! (paper §IV-C, "Semantic Information Embedding"). Slices for fields
//! assembled by multi-field `sprintf` calls additionally carry their own
//! piece of the format string, produced by [`crate::split_format`] — the
//! paper's partial-message separation.

use crate::split::split_format;
use crate::tree::{Mft, MftNodeId, MftNodeKind};
use firmres_dataflow::{DefUse, FieldSource, TaintEngine};
use firmres_ir::{
    is_import_address, Address, AddressSpace, ColdPath, DataType, Function, Opcode, PcodeOp,
    Program, Varnode,
};
use parking_lot::RwLock;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// A code slice for one message field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeSlice {
    /// Enriched operation text, root-to-leaf, `;`-joined.
    pub text: String,
    /// The terminal source of the field.
    pub source: FieldSource,
    /// Leaf node in the originating MFT.
    pub leaf: MftNodeId,
    /// Path hash for message/field grouping.
    pub path_hash: u64,
    /// The field's own piece of a split format string (`"sn=%s"`,
    /// `"\"mac\":"`), when the field was assembled by a multi-field
    /// writer.
    pub piece: Option<String>,
}

/// Render one operation in the enriched form, e.g.
/// `CALL (Fun, sprintf), (Local, buf, v_2443), (Cons, "mac=%s")`.
pub fn enrich_op(program: &Program, func: &Function, op: &PcodeOp) -> String {
    let mut out = String::new();
    write_op(&mut out, program, func, op, None);
    out
}

/// Append the enriched rendering of `op` to `out` — the bytes
/// [`enrich_op_with`] returns, written in place with no intermediate
/// `String` per operand.
fn write_op(
    out: &mut String,
    program: &Program,
    func: &Function,
    op: &PcodeOp,
    du: Option<&DefUse>,
) {
    out.push_str(op.opcode.mnemonic());
    out.push(' ');
    // Every operand renders non-empty, so "anything written since the
    // mnemonic" is exactly "not the first operand".
    let start = out.len();
    let sep = |out: &mut String| {
        if out.len() > start {
            out.push_str(", ");
        }
    };
    if op.opcode.is_call() {
        // First input is the target; render it as a function.
        if let Some(target) = op.inputs.first().and_then(Varnode::const_value) {
            out.push_str("(Fun, ");
            out.push_str(program.callee_name(target).unwrap_or("indirect"));
            out.push(')');
        }
        for arg in op.call_args() {
            let resolved = du.map_or(Cow::Borrowed(arg), |du| resolve_call_arg(func, op, arg, du));
            sep(out);
            write_varnode(out, program, func, &resolved);
        }
    } else {
        for v in op.output.iter().chain(&op.inputs) {
            sep(out);
            write_varnode(out, program, func, v);
        }
    }
}

/// [`enrich_call_arg`]'s definition-chain walk, answering with the
/// varnode to render instead of its text, and asking the def-use
/// analysis for the single reaching definition without collecting the
/// list.
fn resolve_call_arg<'a>(
    func: &Function,
    call: &PcodeOp,
    arg: &'a Varnode,
    du: &DefUse,
) -> Cow<'a, Varnode> {
    let Some(mut pos) = du.position_of(call.addr) else {
        return Cow::Borrowed(arg);
    };
    let mut v = Cow::Borrowed(arg);
    for _ in 0..8 {
        if v.is_const() || func.symbols().lookup(&v).is_some() {
            break;
        }
        let Some(def) = du.unique_reaching_def(pos, &v) else {
            break;
        };
        let op = op_of(func, def);
        match op.opcode {
            Opcode::Copy => {
                v = Cow::Owned(op.inputs[0].clone());
                pos = def;
            }
            // `lea` of a named local: addi rd, sp, off.
            Opcode::IntAdd => {
                if op.inputs[0] == Varnode::new(AddressSpace::Register, 2, 4) {
                    if let Some(k) = op.inputs[1].const_value() {
                        let slot = Varnode::stack(k as i64, 4);
                        if func.symbols().lookup(&slot).is_some() {
                            v = Cow::Owned(slot);
                        }
                    }
                }
                break;
            }
            _ => break,
        }
    }
    v
}

/// Append the enriched `(Datatype, Name, NodeID)` form of `v` to `out` —
/// the bytes [`enrich_varnode`] returns.
fn write_varnode(out: &mut String, program: &Program, func: &Function, v: &Varnode) {
    if let Some(value) = v.const_value() {
        if is_import_address(value) || program.function(value).is_some() {
            out.push_str("(Fun, ");
            out.push_str(program.callee_name(value).unwrap_or("fn"));
            out.push(')');
        } else if let Some(s) = program.string_at(value) {
            out.push_str("(Cons, \"");
            out.push_str(s);
            out.push_str("\")");
        } else {
            write!(out, "(Cons, {value:#x})").expect("write to String");
        }
        return;
    }
    let symbols = func.symbols();
    if let Some(sym) = symbols.lookup(v) {
        if sym.data_type == DataType::Function {
            out.push_str("(Fun, ");
            out.push_str(&sym.name);
            out.push(')');
            return;
        }
        out.push('(');
        out.push_str(sym.data_type.tag());
        out.push_str(", ");
        out.push_str(&sym.name);
    } else {
        // Unnamed storage: synthesize a decompiler-style name.
        match v.space {
            AddressSpace::Register => write!(out, "(Local, r{}", v.offset),
            AddressSpace::Stack => write!(out, "(Local, local_{:x}", v.offset as i64),
            AddressSpace::Unique => write!(out, "(Local, tmp{}", v.offset),
            _ => out.write_str("(Local, anon"),
        }
        .expect("write to String");
    }
    write!(out, ", v_{})", symbols.node_id(v)).expect("write to String");
}

/// [`enrich_op`] with an optional def-use analysis: when available, call
/// arguments held in bare registers are traced one definition back so
/// named locals and string constants appear in the slice text — what a
/// decompiler shows at the call site (`sprintf(buf, "mac=%s", mac)`).
///
/// This is the pre-optimization renderer, one `String` per operand
/// joined at the end, kept as the byte-identity oracle of the reference
/// cold path; the optimized path writes the same bytes with
/// [`write_op`].
pub(crate) fn enrich_op_with(
    program: &Program,
    func: &Function,
    op: &PcodeOp,
    du: Option<&DefUse>,
) -> String {
    let mut parts: Vec<String> = Vec::new();
    if op.opcode.is_call() {
        // First input is the target; render it as a function.
        if let Some(target) = op.inputs.first().and_then(Varnode::const_value) {
            let name = program.callee_name(target).unwrap_or("indirect");
            parts.push(format!("(Fun, {name})"));
        }
        for arg in op.call_args() {
            parts.push(enrich_call_arg(program, func, op, arg, du));
        }
    } else {
        if let Some(out) = &op.output {
            parts.push(enrich_varnode(program, func, out));
        }
        for input in &op.inputs {
            parts.push(enrich_varnode(program, func, input));
        }
    }
    format!("{} {}", op.opcode.mnemonic(), parts.join(", "))
}

/// Resolve a call argument through a short definition chain so the slice
/// shows the decompiled operand instead of a raw register.
fn enrich_call_arg(
    program: &Program,
    func: &Function,
    call: &PcodeOp,
    arg: &Varnode,
    du: Option<&DefUse>,
) -> String {
    let Some(du) = du else {
        return enrich_varnode(program, func, arg);
    };
    let Some(at) = du.position_of(call.addr) else {
        return enrich_varnode(program, func, arg);
    };
    let mut v = arg.clone();
    let mut pos = at;
    for _ in 0..8 {
        if v.is_const() || func.symbols().lookup(&v).is_some() {
            break;
        }
        let defs = du.reaching_defs(pos, &v);
        if defs.len() != 1 {
            break;
        }
        let def = defs[0];
        let op = crate::slice::op_of(func, def);
        match op.opcode {
            Opcode::Copy => {
                v = op.inputs[0].clone();
                pos = def;
            }
            // `lea` of a named local: addi rd, sp, off.
            Opcode::IntAdd => {
                let sp = Varnode::new(AddressSpace::Register, 2, 4);
                if op.inputs[0] == sp {
                    if let Some(k) = op.inputs[1].const_value() {
                        let slot = Varnode::stack(k as i64, 4);
                        if func.symbols().lookup(&slot).is_some() {
                            v = slot;
                        }
                    }
                }
                break;
            }
            _ => break,
        }
    }
    enrich_varnode(program, func, &v)
}

pub(crate) fn op_of(func: &Function, r: crate::slice::OpRefAlias) -> &PcodeOp {
    &func.block(r.block).ops[r.index]
}

pub(crate) type OpRefAlias = firmres_dataflow::OpRef;

/// Render one varnode in the enriched `(Datatype, Name, NodeID)` form.
pub(crate) fn enrich_varnode(program: &Program, func: &Function, v: &Varnode) -> String {
    if let Some(value) = v.const_value() {
        if is_import_address(value) || program.function(value).is_some() {
            let name = program.callee_name(value).unwrap_or("fn");
            return format!("(Fun, {name})");
        }
        if let Some(s) = program.string_at(value) {
            return format!("(Cons, \"{s}\")");
        }
        return format!("(Cons, {value:#x})");
    }
    let id = func.symbols().node_id(v);
    if let Some(sym) = func.symbols().lookup(v) {
        let tag = sym.data_type.tag();
        if sym.data_type == DataType::Function {
            return format!("(Fun, {})", sym.name);
        }
        return format!("({tag}, {}, v_{id})", sym.name);
    }
    // Unnamed storage: synthesize a decompiler-style name.
    match v.space {
        firmres_ir::AddressSpace::Register => {
            format!("(Local, r{}, v_{id})", v.offset)
        }
        firmres_ir::AddressSpace::Stack => {
            format!("(Local, local_{:x}, v_{id})", v.offset as i64)
        }
        firmres_ir::AddressSpace::Unique => format!("(Local, tmp{}, v_{id})", v.offset),
        _ => format!("(Local, anon, v_{id})"),
    }
}

/// Per-leaf piece information for multi-field writers: the leaf's own
/// piece text, plus (for formatted writers) the full template it was cut
/// from, so the template can be substituted out of the leaf's slice —
/// the paper's partial-message separation, applied *before* slices reach
/// the classifier.
struct PieceInfo {
    piece: String,
    full_template: Option<String>,
}

fn piece_map(mft: &Mft) -> BTreeMap<MftNodeId, PieceInfo> {
    let mut map = BTreeMap::new();
    // strcpy/strcat chains alternate key-literal writes and value writes;
    // give each value leaf its key literal as the piece (the paper's
    // observation that access-control fields travel as key-value pairs).
    for n in mft.nodes() {
        let children = &n.children;
        for j in 0..children.len() {
            let key_node = mft.node(children[j]);
            let MftNodeKind::Concat { via } = &key_node.kind else {
                continue;
            };
            if via != "strcat" && via != "strcpy" && via != "store" {
                continue;
            }
            let Some(lit) = first_string_leaf(mft, children[j]) else {
                continue;
            };
            let trimmed = lit.trim_end();
            if !(trimmed.ends_with('=') || trimmed.ends_with(':')) {
                continue;
            }
            // Children are in backward-discovery order: the paired value
            // write is the *previous* sibling.
            if j == 0 {
                continue;
            }
            let value_node = mft.node(children[j - 1]);
            if !matches!(&value_node.kind, MftNodeKind::Concat { .. }) {
                continue;
            }
            for leaf in subtree_leaves(mft, children[j - 1]) {
                map.entry(leaf).or_insert_with(|| PieceInfo {
                    piece: lit.clone(),
                    full_template: None,
                });
            }
        }
    }
    for n in mft.nodes() {
        let MftNodeKind::Concat { via } = &n.kind else {
            continue;
        };
        if n.children.len() < 2 {
            continue;
        }
        // First child subtree should resolve to the key/format constant.
        let Some(key_text) = first_string_leaf(mft, n.children[0]) else {
            continue;
        };
        if via == "sprintf" || via == "snprintf" {
            let pieces = split_format(&key_text);
            for (i, child) in n.children.iter().enumerate().skip(1) {
                if let Some(piece) = pieces.get(i - 1) {
                    let rendered = match piece.spec {
                        Some(spec) => format!("{}%{}", piece.literal, spec),
                        None => piece.literal.clone(),
                    };
                    for leaf in subtree_leaves(mft, *child) {
                        map.insert(
                            leaf,
                            PieceInfo {
                                piece: rendered.clone(),
                                full_template: Some(key_text.clone()),
                            },
                        );
                    }
                }
            }
        } else if via.starts_with("cJSON_Add") {
            // children = [key, value]; the value's piece is the JSON key.
            for leaf in subtree_leaves(mft, n.children[1]) {
                map.insert(
                    leaf,
                    PieceInfo {
                        piece: format!("\"{key_text}\":"),
                        full_template: None,
                    },
                );
            }
        }
    }
    map
}

fn first_string_leaf(mft: &Mft, id: MftNodeId) -> Option<String> {
    let n = mft.node(id);
    if let MftNodeKind::Field(FieldSource::StringConstant { value, .. }) = &n.kind {
        return Some(value.clone());
    }
    for c in &n.children {
        if let Some(s) = first_string_leaf(mft, *c) {
            return Some(s);
        }
    }
    None
}

fn subtree_leaves(mft: &Mft, id: MftNodeId) -> Vec<MftNodeId> {
    let mut out = Vec::new();
    collect_leaves(mft, id, &mut out);
    out
}

fn collect_leaves(mft: &Mft, id: MftNodeId, out: &mut Vec<MftNodeId>) {
    let n = mft.node(id);
    if matches!(n.kind, MftNodeKind::Field(_)) {
        out.push(id);
    }
    for c in &n.children {
        collect_leaves(mft, *c, out);
    }
}

/// Produce a [`CodeSlice`] for every field leaf of `mft`.
///
/// Paths are rendered root-to-leaf; operations shared by several fields
/// (the delivery call, common concatenation steps) appear in each slice,
/// preserving the per-field context the classifier learns from.
pub fn slices_for_tree(program: &Program, mft: &Mft) -> Vec<CodeSlice> {
    SliceRenderer::new(program).slices_for_tree(mft)
}

/// Reusable slice renderer: caches per-function def-use analyses across
/// trees, which matters when rendering slices for every message of a
/// firmware (the pipeline renders hundreds of slices over the same few
/// functions).
///
/// A renderer built with [`SliceRenderer::for_engine`] owns no analyses
/// at all: it reads the taint engine's per-function def-use cache, so a
/// function the engine already solved while tracing is never solved a
/// second time for rendering.
///
/// The renderer is `Sync` — the def-use cache lives behind a lock, so one
/// renderer can serve the pipeline's parallel message units. Cached
/// analyses are deterministic functions of the immutable program, so a
/// racing fill can only insert the value every other worker would have.
pub struct SliceRenderer<'p> {
    program: &'p Program,
    mode: ColdPath,
    defuse: DefUseSource<'p>,
}

/// Where a [`SliceRenderer`] gets its per-function def-use analyses.
enum DefUseSource<'p> {
    /// A cache of the renderer's own.
    Own(RwLock<BTreeMap<Address, Arc<DefUse>>>),
    /// The cache of the taint engine whose traces are being rendered.
    Engine(&'p TaintEngine<'p>),
}

impl<'p> SliceRenderer<'p> {
    /// Create a renderer over `program` with the default (optimized)
    /// cold-path data structures.
    pub fn new(program: &'p Program) -> Self {
        SliceRenderer::with_mode(program, ColdPath::default())
    }

    /// Create a renderer whose cached def-use analyses use the given
    /// [`ColdPath`] implementation. Query results are identical either
    /// way; only the solver's data layout differs.
    ///
    /// The pipeline renders through [`SliceRenderer::for_engine`] and
    /// never calls this: a stand-alone renderer solves each function's
    /// def-use a second time. It stays for the reference-oracle tests
    /// (`tests/cold_path_slices.rs` renders with
    /// [`ColdPath::Reference`] against the engine-sharing form) and for
    /// the benchmark's traced replay, which times slicing on its own.
    pub fn with_mode(program: &'p Program, mode: ColdPath) -> Self {
        SliceRenderer {
            program,
            mode,
            defuse: DefUseSource::Own(RwLock::new(BTreeMap::new())),
        }
    }

    /// Create a renderer over `engine`'s program that borrows the
    /// engine's per-function def-use cache and renders in the engine's
    /// [`ColdPath`] mode. Slices are byte-identical to those of
    /// [`SliceRenderer::with_mode`]; each function is solved once for
    /// tracing and rendering together.
    pub fn for_engine(engine: &'p TaintEngine<'p>) -> Self {
        SliceRenderer {
            program: engine.program(),
            mode: engine.config().cold_path,
            defuse: DefUseSource::Engine(engine),
        }
    }

    fn du(&self, func: Address, f: &Function) -> Arc<DefUse> {
        match &self.defuse {
            DefUseSource::Engine(engine) => engine.def_use(func).expect("function exists"),
            DefUseSource::Own(cache) => {
                if let Some(du) = cache.read().get(&func) {
                    return Arc::clone(du);
                }
                let du = Arc::new(DefUse::compute_with(f, self.mode));
                Arc::clone(cache.write().entry(func).or_insert(du))
            }
        }
    }

    /// Produce a [`CodeSlice`] for every field leaf of `mft` (see
    /// [`slices_for_tree`]).
    ///
    /// Both modes emit identical bytes; the reference mode re-renders
    /// every operation of every root-to-leaf path from scratch (the
    /// pre-optimization behaviour, kept as the byte-identity oracle),
    /// while the optimized mode renders each distinct operation once per
    /// tree into a per-tree line memo and assembles slice text in a
    /// single buffer.
    pub fn slices_for_tree(&self, mft: &Mft) -> Vec<CodeSlice> {
        match self.mode {
            ColdPath::Reference => self.slices_for_tree_reference(mft),
            ColdPath::Optimized => self.slices_for_tree_memo(mft),
        }
    }

    /// The original per-leaf rendering: every operation on every path is
    /// enriched fresh and joined through intermediate `String`s.
    fn slices_for_tree_reference(&self, mft: &Mft) -> Vec<CodeSlice> {
        let program = self.program;
        let pieces = piece_map(mft);
        let mut out = Vec::new();
        for leaf in mft.leaves() {
            let source = match &mft.node(leaf).kind {
                MftNodeKind::Field(s) => s.clone(),
                _ => continue,
            };
            // Collect path root→leaf.
            let mut path = Vec::new();
            let mut cur = Some(leaf);
            while let Some(id) = cur {
                path.push(id);
                cur = mft.node(id).parent;
            }
            path.reverse();
            let info = pieces.get(&leaf);
            let mut rendered: Vec<String> = Vec::new();
            for id in &path {
                let n = mft.node(*id);
                if let Some(op) = &n.op {
                    if let Some(f) = program.function(n.func) {
                        let du = self.du(n.func, f);
                        let mut line = enrich_op_with(program, f, op, Some(&du));
                        // Partial-message separation: this field's slice shows
                        // only its own piece of a multi-field template, not the
                        // whole format string (which would leak sibling keys
                        // into the classifier's context).
                        if let Some(PieceInfo {
                            piece,
                            full_template: Some(full),
                        }) = info
                        {
                            line = line.replace(full.as_str(), piece.as_str());
                        }
                        rendered.push(line);
                    }
                }
            }
            // The leaf itself (source description) closes the slice.
            rendered.push(format!("SRC {source}"));
            if let Some(info) = info {
                rendered.push(format!("FIELD (Cons, \"{}\")", info.piece));
            }
            out.push(CodeSlice {
                text: rendered.join(" ; "),
                source,
                leaf,
                path_hash: mft.path_hash(leaf),
                piece: info.map(|i| i.piece.clone()),
            });
        }
        out
    }

    /// Memoized rendering: byte-identical to
    /// [`Self::slices_for_tree_reference`] (the cold-path gate's report
    /// comparison pins this), with each node's operation rendered once
    /// per tree, every path hash folded once per node, and slice text
    /// assembled in one buffer.
    fn slices_for_tree_memo(&self, mft: &Mft) -> Vec<CodeSlice> {
        let program = self.program;
        let pieces = piece_map(mft);
        let path_hashes = mft.path_hashes();
        // A node's operation renders identically for every leaf whose
        // path crosses it, and path prefixes are shared (the delivery
        // call sits on *every* path) — render each node once per tree
        // instead of once per leaf, into one arena indexed by node id.
        // The leaf-dependent template substitution below is applied
        // while copying into the slice buffer, so the memo stays
        // leaf-independent and the emitted text is unchanged.
        let mut arena = String::new();
        let mut lines = vec![Line::Unrendered; mft.len()];
        // The def-use of the function rendered last: consecutive nodes
        // almost always share a function.
        let mut last_du: Option<(Address, Arc<DefUse>)> = None;
        let mut path = Vec::new();
        let mut out = Vec::new();
        for leaf in mft.leaves() {
            let source = match &mft.node(leaf).kind {
                MftNodeKind::Field(s) => s.clone(),
                _ => continue,
            };
            // Collect path root→leaf.
            path.clear();
            let mut cur = Some(leaf);
            while let Some(id) = cur {
                path.push(id);
                cur = mft.node(id).parent;
            }
            path.reverse();
            let info = pieces.get(&leaf);
            // Assemble the slice text directly: appending each line (with
            // the `" ; "` separator between lines) produces the same
            // bytes the reference `Vec<String>` + `join(" ; ")` does.
            let mut text = String::new();
            for id in &path {
                if lines[id.0] == Line::Unrendered {
                    lines[id.0] = Line::Absent;
                    let n = mft.node(*id);
                    if let (Some(op), Some(f)) = (&n.op, program.function(n.func)) {
                        let du = match &last_du {
                            Some((func, du)) if *func == n.func => Arc::clone(du),
                            _ => {
                                let du = self.du(n.func, f);
                                last_du = Some((n.func, Arc::clone(&du)));
                                du
                            }
                        };
                        let start = arena.len();
                        write_op(&mut arena, program, f, op, Some(&du));
                        lines[id.0] = Line::At(start, arena.len());
                    }
                }
                let Line::At(start, end) = lines[id.0] else {
                    continue;
                };
                let line = &arena[start..end];
                if !text.is_empty() {
                    text.push_str(" ; ");
                }
                // Partial-message separation: this field's slice shows
                // only its own piece of a multi-field template, not the
                // whole format string (which would leak sibling keys
                // into the classifier's context). The streamed scan
                // below is `str::replace` (leftmost, non-overlapping)
                // writing straight into the slice buffer.
                match info {
                    Some(PieceInfo {
                        piece,
                        full_template: Some(full),
                    }) if !full.is_empty() => {
                        let mut rest = line;
                        while let Some(pos) = rest.find(full.as_str()) {
                            text.push_str(&rest[..pos]);
                            text.push_str(piece);
                            rest = &rest[pos + full.len()..];
                        }
                        text.push_str(rest);
                    }
                    Some(PieceInfo {
                        piece,
                        full_template: Some(full),
                    }) => {
                        // Degenerate empty template: defer to
                        // `str::replace` for its exact semantics.
                        text.push_str(&line.replace(full.as_str(), piece.as_str()));
                    }
                    _ => text.push_str(line),
                }
            }
            // The leaf itself (source description) closes the slice.
            if !text.is_empty() {
                text.push_str(" ; ");
            }
            write!(text, "SRC {source}").expect("write to String");
            if let Some(info) = info {
                text.push_str(" ; FIELD (Cons, \"");
                text.push_str(&info.piece);
                text.push_str("\")");
            }
            out.push(CodeSlice {
                text,
                source,
                leaf,
                path_hash: path_hashes[leaf.0],
                piece: info.map(|i| i.piece.clone()),
            });
        }
        out
    }
}

/// A node's slot in the per-tree line memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Line {
    /// Not visited yet.
    Unrendered,
    /// The node has no operation (or its function is missing): it
    /// contributes no line.
    Absent,
    /// The rendered line is `arena[start..end]`.
    At(usize, usize),
}

/// Whether an opcode would normally appear in slices (used by tests and
/// diagnostics).
pub(crate) fn _slice_relevant(op: Opcode) -> bool {
    op.is_dataflow() || op.is_call()
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmres_dataflow::TaintEngine;
    use firmres_isa::{lift, Assembler};

    fn mft_for(src: &str, delivery: &str, arg: usize) -> (Program, Mft) {
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
        let mft = Mft::from_taint(&tree);
        (p, mft)
    }

    const SPRINTF_SRC: &str = r#"
.func main
.local buf 128
.local mac 32
    lea a0, mac
    callx get_mac_addr
    lea a0, buf
    la  a1, fmt
    lea a2, mac
    la  a3, sn
    callx sprintf
    lea a1, buf
    li  a0, 1
    callx SSL_write
    ret
.endfunc
.data
fmt: .asciz "mac=%s&sn=%s"
sn: .asciz "SN123456"
"#;

    #[test]
    fn slices_cover_every_leaf() {
        let (p, mft) = mft_for(SPRINTF_SRC, "SSL_write", 1);
        let slices = slices_for_tree(&p, &mft);
        assert_eq!(slices.len(), mft.leaves().len());
        assert!(slices.iter().all(|s| !s.text.is_empty()));
    }

    #[test]
    fn sprintf_value_slices_carry_their_format_piece() {
        let (p, mft) = mft_for(SPRINTF_SRC, "SSL_write", 1);
        let slices = slices_for_tree(&p, &mft);
        let mac_slice = slices
            .iter()
            .find(|s| s.source.to_string().contains("get_mac_addr"))
            .expect("mac leaf present");
        assert_eq!(mac_slice.piece.as_deref(), Some("mac=%s"));
        assert!(mac_slice.text.contains("mac=%s"), "{}", mac_slice.text);
        let sn_slice = slices
            .iter()
            .find(|s| s.source.to_string().contains("SN123456"))
            .expect("sn leaf present");
        assert_eq!(sn_slice.piece.as_deref(), Some("sn=%s"));
    }

    #[test]
    fn enriched_text_contains_function_and_symbol_names() {
        let (p, mft) = mft_for(SPRINTF_SRC, "SSL_write", 1);
        let slices = slices_for_tree(&p, &mft);
        let any = &slices[0];
        assert!(any.text.contains("(Fun, SSL_write)"), "{}", any.text);
        // The named local `buf` shows up with a node id.
        assert!(
            slices.iter().any(|s| s.text.contains("(Local, buf, v_")),
            "named locals rendered: {}",
            slices[0].text
        );
    }

    #[test]
    fn cjson_value_slices_get_json_key_piece() {
        let src = r#"
.func main
    callx cJSON_CreateObject
    mov t0, rv
    mov a0, t0
    la  a1, k
    la  a2, v
    callx cJSON_AddStringToObject
    mov a0, t0
    callx cJSON_Print
    mov a1, rv
    li  a0, 1
    callx SSL_write
    ret
.endfunc
.data
k: .asciz "deviceId"
v: .asciz "D-1000"
"#;
        let (p, mft) = mft_for(src, "SSL_write", 1);
        let slices = slices_for_tree(&p, &mft);
        let value_slice = slices
            .iter()
            .find(|s| s.source.to_string().contains("D-1000"))
            .expect("value leaf");
        assert_eq!(value_slice.piece.as_deref(), Some("\"deviceId\":"));
    }

    #[test]
    fn enrich_op_renders_paper_style() {
        let src = ".func main\n la a0, s\n callx puts\n ret\n.endfunc\n.data\ns: .asciz \"posting data of is %s\"\n";
        let exe = Assembler::new().assemble(src).unwrap();
        let p = lift(&exe, "t").unwrap();
        let f = p.function_by_name("main").unwrap();
        let call = f.callsites().next().unwrap();
        let text = enrich_op(&p, f, call);
        assert!(text.starts_with("CALL (Fun, puts)"), "{text}");
        let copy = f.ops().find(|o| o.opcode == Opcode::Copy).unwrap();
        let text = enrich_op(&p, f, copy);
        assert!(text.contains("(Cons, \"posting data of is %s\")"), "{text}");
    }

    #[test]
    fn path_hashes_group_same_message_fields() {
        let (p, mft) = mft_for(SPRINTF_SRC, "SSL_write", 1);
        let slices = slices_for_tree(&p, &mft);
        // All slices of this one message share the root, so hashes differ
        // per leaf but are all nonzero and stable.
        let hashes: Vec<u64> = slices.iter().map(|s| s.path_hash).collect();
        assert!(hashes.iter().all(|h| *h != 0));
        // Structurally distinct paths hash differently (identical paths —
        // e.g. two unresolved garbage arguments — may legitimately collide).
        let mac = slices
            .iter()
            .find(|s| s.source.to_string().contains("get_mac_addr"))
            .unwrap();
        let sn = slices
            .iter()
            .find(|s| s.source.to_string().contains("SN123456"))
            .unwrap();
        assert_ne!(mac.path_hash, sn.path_hash);
    }
}
