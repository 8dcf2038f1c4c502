//! Hand-rolled binary codec for a full [`FirmwareAnalysis`] and its
//! constituent types.
//!
//! The workspace has no serde; persistence follows the same idiom as
//! [`FirmwareImage::pack`]: little-endian scalars, length-prefixed
//! strings and vectors, and explicit per-enum tags. Enum tags are
//! assigned by *local exhaustive matches* in this module — when an
//! upstream enum gains a variant, the match here stops compiling, which
//! is exactly the signal that [`PIPELINE_VERSION`] must be bumped.
//!
//! Decoding is panic-free: every read is bounds-checked through
//! [`Reader`] and malformed input surfaces as a [`DecodeError`], which
//! the store turns into a diagnosed cache miss.
//!
//! [`FirmwareImage::pack`]: firmres_firmware::FirmwareImage::pack
//! [`PIPELINE_VERSION`]: crate::PIPELINE_VERSION

use bytes::BufMut;
use firmres::stages::UnitEvents;
use firmres::{
    Counter, Diagnostic, Event, FirmwareAnalysis, FormFlaw, HandlerInfo, MessagePhase,
    MessageRecord, Severity, StageCounters, StageEvents, StageKind, StageTimings,
};
use firmres_dataflow::{intern_unresolved_reason, FieldSource, SourceKind, TaintSummary};
use firmres_ir::{AddressSpace, Opcode, PcodeOp, Varnode};
use firmres_mft::{
    CodeSlice, MessageField, MessageFormat, Mft, MftNode, MftNodeId, MftNodeKind,
    ReconstructedMessage, Transport,
};
use firmres_semantics::Primitive;
use std::fmt;
use std::time::Duration;

/// A malformed byte stream: what was being decoded and why it failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode failed: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn err<T>(what: &str) -> Result<T, DecodeError> {
    Err(DecodeError(what.to_string()))
}

/// Bounds-checked little-endian reader over a byte slice.
///
/// The vendored `bytes::Buf` panics past the end of the buffer; cache
/// entries come from disk and must never panic the analyzer, so all
/// reads here return [`DecodeError`] instead.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() < n {
            return err("unexpected end of input");
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Consume `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n)
    }

    /// Consume one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Consume a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Consume a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Consume a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Consume a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, DecodeError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Consume a little-endian `f64` (bit pattern, so NaN round-trips).
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Consume a `bool` encoded as one byte (`0`/`1` only).
    pub fn boolean(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => err("invalid boolean byte"),
        }
    }

    /// Consume a `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        match std::str::from_utf8(raw) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => err("invalid utf-8 string"),
        }
    }

    /// A sequence length prefix, sanity-capped against the bytes left.
    ///
    /// Each element needs at least one byte, so a length larger than the
    /// remaining input is corruption — rejecting it here keeps a flipped
    /// length byte from turning into a multi-gigabyte allocation.
    pub fn seq_len(&mut self) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return err("length prefix exceeds remaining input");
        }
        Ok(n)
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.put_u32_le(s.len() as u32);
    out.put_slice(s.as_bytes());
}

fn put_opt_string(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.put_u8(0),
        Some(s) => {
            out.put_u8(1);
            put_string(out, s);
        }
    }
}

fn get_opt_string(r: &mut Reader) -> Result<Option<String>, DecodeError> {
    if r.boolean()? {
        Ok(Some(r.string()?))
    } else {
        Ok(None)
    }
}

// ---- leaf enums ---------------------------------------------------------

fn put_source_kind(out: &mut Vec<u8>, k: SourceKind) {
    // Local exhaustive tags: a new SourceKind variant fails this match.
    out.put_u8(match k {
        SourceKind::Nvram => 0,
        SourceKind::ConfigFile => 1,
        SourceKind::Environment => 2,
        SourceKind::HardwareId => 3,
        SourceKind::NetworkIn => 4,
        SourceKind::UserInput => 5,
        SourceKind::Time => 6,
        SourceKind::Random => 7,
    });
}

fn get_source_kind(r: &mut Reader) -> Result<SourceKind, DecodeError> {
    Ok(match r.u8()? {
        0 => SourceKind::Nvram,
        1 => SourceKind::ConfigFile,
        2 => SourceKind::Environment,
        3 => SourceKind::HardwareId,
        4 => SourceKind::NetworkIn,
        5 => SourceKind::UserInput,
        6 => SourceKind::Time,
        7 => SourceKind::Random,
        _ => return err("invalid SourceKind tag"),
    })
}

fn put_address_space(out: &mut Vec<u8>, s: AddressSpace) {
    out.put_u8(match s {
        AddressSpace::Ram => 0,
        AddressSpace::Register => 1,
        AddressSpace::Unique => 2,
        AddressSpace::Const => 3,
        AddressSpace::Stack => 4,
    });
}

fn get_address_space(r: &mut Reader) -> Result<AddressSpace, DecodeError> {
    Ok(match r.u8()? {
        0 => AddressSpace::Ram,
        1 => AddressSpace::Register,
        2 => AddressSpace::Unique,
        3 => AddressSpace::Const,
        4 => AddressSpace::Stack,
        _ => return err("invalid AddressSpace tag"),
    })
}

fn put_transport(out: &mut Vec<u8>, t: Transport) {
    out.put_u8(match t {
        Transport::Ssl => 0,
        Transport::Tcp => 1,
        Transport::Mqtt => 2,
        Transport::Http => 3,
        Transport::Unknown => 4,
    });
}

fn get_transport(r: &mut Reader) -> Result<Transport, DecodeError> {
    Ok(match r.u8()? {
        0 => Transport::Ssl,
        1 => Transport::Tcp,
        2 => Transport::Mqtt,
        3 => Transport::Http,
        4 => Transport::Unknown,
        _ => return err("invalid Transport tag"),
    })
}

fn put_format(out: &mut Vec<u8>, f: MessageFormat) {
    out.put_u8(match f {
        MessageFormat::Json => 0,
        MessageFormat::Query => 1,
        MessageFormat::KeyValue => 2,
        MessageFormat::Raw => 3,
    });
}

fn get_format(r: &mut Reader) -> Result<MessageFormat, DecodeError> {
    Ok(match r.u8()? {
        0 => MessageFormat::Json,
        1 => MessageFormat::Query,
        2 => MessageFormat::KeyValue,
        3 => MessageFormat::Raw,
        _ => return err("invalid MessageFormat tag"),
    })
}

fn put_phase(out: &mut Vec<u8>, p: MessagePhase) {
    out.put_u8(match p {
        MessagePhase::Binding => 0,
        MessagePhase::Business => 1,
    });
}

fn get_phase(r: &mut Reader) -> Result<MessagePhase, DecodeError> {
    Ok(match r.u8()? {
        0 => MessagePhase::Binding,
        1 => MessagePhase::Business,
        _ => return err("invalid MessagePhase tag"),
    })
}

fn put_stage_kind(out: &mut Vec<u8>, s: StageKind) {
    out.put_u8(match s {
        StageKind::Input => 0,
        StageKind::ExeId => 1,
        StageKind::FieldId => 2,
        StageKind::Semantics => 3,
        StageKind::Concat => 4,
        StageKind::FormCheck => 5,
        StageKind::Cache => 6,
    });
}

fn get_stage_kind(r: &mut Reader) -> Result<StageKind, DecodeError> {
    Ok(match r.u8()? {
        0 => StageKind::Input,
        1 => StageKind::ExeId,
        2 => StageKind::FieldId,
        3 => StageKind::Semantics,
        4 => StageKind::Concat,
        5 => StageKind::FormCheck,
        6 => StageKind::Cache,
        _ => return err("invalid StageKind tag"),
    })
}

fn put_severity(out: &mut Vec<u8>, s: Severity) {
    out.put_u8(match s {
        Severity::Info => 0,
        Severity::Warning => 1,
        Severity::Error => 2,
    });
}

fn get_severity(r: &mut Reader) -> Result<Severity, DecodeError> {
    Ok(match r.u8()? {
        0 => Severity::Info,
        1 => Severity::Warning,
        2 => Severity::Error,
        _ => return err("invalid Severity tag"),
    })
}

fn put_primitive(out: &mut Vec<u8>, p: Primitive) {
    out.put_u8(p.index() as u8);
}

fn get_primitive(r: &mut Reader) -> Result<Primitive, DecodeError> {
    match Primitive::from_index(r.u8()? as usize) {
        Some(p) => Ok(p),
        None => err("invalid Primitive index"),
    }
}

// ---- field sources ------------------------------------------------------

/// Encode one [`FieldSource`].
pub fn put_field_source(out: &mut Vec<u8>, s: &FieldSource) {
    match s {
        FieldSource::StringConstant { addr, value } => {
            out.put_u8(0);
            out.put_u64_le(*addr);
            put_string(out, value);
        }
        FieldSource::NumericConstant { value } => {
            out.put_u8(1);
            out.put_u64_le(*value);
        }
        FieldSource::LibCall { kind, callee, key } => {
            out.put_u8(2);
            put_source_kind(out, *kind);
            put_string(out, callee);
            put_opt_string(out, key.as_deref());
        }
        FieldSource::EntryParam { func, index } => {
            out.put_u8(3);
            put_string(out, func);
            out.put_u32_le(*index as u32);
        }
        FieldSource::Unresolved { reason } => {
            out.put_u8(4);
            put_string(out, reason);
        }
    }
}

/// Decode one [`FieldSource`]. Unresolved reasons are re-interned to the
/// engine's `&'static str` table via [`intern_unresolved_reason`].
pub fn get_field_source(r: &mut Reader) -> Result<FieldSource, DecodeError> {
    Ok(match r.u8()? {
        0 => FieldSource::StringConstant {
            addr: r.u64()?,
            value: r.string()?,
        },
        1 => FieldSource::NumericConstant { value: r.u64()? },
        2 => FieldSource::LibCall {
            kind: get_source_kind(r)?,
            callee: r.string()?,
            key: get_opt_string(r)?,
        },
        3 => FieldSource::EntryParam {
            func: r.string()?,
            index: r.u32()? as usize,
        },
        4 => FieldSource::Unresolved {
            reason: intern_unresolved_reason(&r.string()?),
        },
        _ => return err("invalid FieldSource tag"),
    })
}

// ---- IR -----------------------------------------------------------------

/// Encode one [`Varnode`] (shared with the `.flix` known-library codec).
pub fn put_varnode(out: &mut Vec<u8>, v: &Varnode) {
    put_address_space(out, v.space);
    out.put_u64_le(v.offset);
    out.put_u8(v.size);
}

/// Decode one [`Varnode`].
pub fn get_varnode(r: &mut Reader) -> Result<Varnode, DecodeError> {
    let space = get_address_space(r)?;
    let offset = r.u64()?;
    let size = r.u8()?;
    Ok(Varnode::new(space, offset, size))
}

/// Encode one [`PcodeOp`] (shared with the `.flix` known-library codec).
pub fn put_pcode_op(out: &mut Vec<u8>, op: &PcodeOp) {
    out.put_u64_le(op.addr);
    out.put_u8(op.opcode.tag());
    match &op.output {
        None => out.put_u8(0),
        Some(v) => {
            out.put_u8(1);
            put_varnode(out, v);
        }
    }
    out.put_u32_le(op.inputs.len() as u32);
    for v in &op.inputs {
        put_varnode(out, v);
    }
}

/// Decode one [`PcodeOp`].
pub fn get_pcode_op(r: &mut Reader) -> Result<PcodeOp, DecodeError> {
    let addr = r.u64()?;
    let Some(opcode) = Opcode::from_tag(r.u8()?) else {
        return err("invalid Opcode tag");
    };
    let output = if r.boolean()? {
        Some(get_varnode(r)?)
    } else {
        None
    };
    let n = r.seq_len()?;
    let mut inputs = Vec::with_capacity(n);
    for _ in 0..n {
        inputs.push(get_varnode(r)?);
    }
    Ok(PcodeOp {
        addr,
        opcode,
        output,
        inputs,
    })
}

// ---- MFT ----------------------------------------------------------------

fn put_mft_node(out: &mut Vec<u8>, n: &MftNode) {
    out.put_u64_le(n.id.0 as u64);
    match n.parent {
        None => out.put_u8(0),
        Some(p) => {
            out.put_u8(1);
            out.put_u64_le(p.0 as u64);
        }
    }
    out.put_u32_le(n.children.len() as u32);
    for c in &n.children {
        out.put_u64_le(c.0 as u64);
    }
    match &n.kind {
        MftNodeKind::Root { delivery } => {
            out.put_u8(0);
            put_string(out, delivery);
        }
        MftNodeKind::Concat { via } => {
            out.put_u8(1);
            put_string(out, via);
        }
        MftNodeKind::Op { label } => {
            out.put_u8(2);
            put_string(out, label);
        }
        MftNodeKind::Field(s) => {
            out.put_u8(3);
            put_field_source(out, s);
        }
        MftNodeKind::Annotation(a) => {
            out.put_u8(4);
            put_string(out, a);
        }
    }
    match &n.op {
        None => out.put_u8(0),
        Some(op) => {
            out.put_u8(1);
            put_pcode_op(out, op);
        }
    }
    out.put_u64_le(n.func);
}

fn get_mft_node(r: &mut Reader) -> Result<MftNode, DecodeError> {
    let id = MftNodeId(r.u64()? as usize);
    let parent = if r.boolean()? {
        Some(MftNodeId(r.u64()? as usize))
    } else {
        None
    };
    let n = r.seq_len()?;
    let mut children = Vec::with_capacity(n);
    for _ in 0..n {
        children.push(MftNodeId(r.u64()? as usize));
    }
    let kind = match r.u8()? {
        0 => MftNodeKind::Root {
            delivery: r.string()?,
        },
        1 => MftNodeKind::Concat { via: r.string()? },
        2 => MftNodeKind::Op { label: r.string()? },
        3 => MftNodeKind::Field(get_field_source(r)?),
        4 => MftNodeKind::Annotation(r.string()?),
        _ => return err("invalid MftNodeKind tag"),
    };
    let op = if r.boolean()? {
        Some(get_pcode_op(r)?)
    } else {
        None
    };
    let func = r.u64()?;
    Ok(MftNode {
        id,
        parent,
        children,
        kind,
        op,
        func,
    })
}

/// Encode a whole [`Mft`].
pub fn put_mft(out: &mut Vec<u8>, mft: &Mft) {
    out.put_u32_le(mft.nodes().len() as u32);
    for n in mft.nodes() {
        put_mft_node(out, n);
    }
}

/// Decode a whole [`Mft`], validating the dense-id layout
/// [`Mft::from_nodes`] requires *and* the tree structure the traversal
/// code assumes.
///
/// `Mft` indexes nodes unchecked and recurses through `children`, so a
/// decoded entry must be proven well-formed here: every link in bounds,
/// every parent/child pair mutually consistent, and — because a parent
/// is always allocated before its children (the invariant of every MFT
/// construction path) — every child id strictly greater than its
/// parent's, which rules out cycles and unbounded recursion. The FNV
/// entry checksum is not cryptographic, so crafted or pathologically
/// corrupted bytes can reach this point; they must come back as a
/// [`DecodeError`], never a panic or stack overflow.
pub fn get_mft(r: &mut Reader) -> Result<Mft, DecodeError> {
    let n = r.seq_len()?;
    let mut nodes = Vec::with_capacity(n);
    for i in 0..n {
        let node = get_mft_node(r)?;
        if node.id.0 != i {
            return err("MFT node ids are not dense");
        }
        nodes.push(node);
    }
    for (i, node) in nodes.iter().enumerate() {
        match node.parent {
            None if i != 0 => return err("non-root MFT node without a parent"),
            Some(_) if i == 0 => return err("MFT root has a parent"),
            Some(p) if p.0 >= i => return err("MFT parent id not below child id"),
            Some(p) if !nodes[p.0].children.contains(&node.id) => {
                return err("MFT parent does not list child")
            }
            _ => {}
        }
        for (pos, c) in node.children.iter().enumerate() {
            if c.0 >= n {
                return err("MFT child id out of bounds");
            }
            if c.0 <= i {
                return err("MFT child id not above parent id");
            }
            if nodes[c.0].parent != Some(node.id) {
                return err("MFT child does not back-reference parent");
            }
            if node.children[..pos].contains(c) {
                return err("MFT child listed twice");
            }
        }
    }
    Ok(Mft::from_nodes(nodes))
}

// ---- messages and slices ------------------------------------------------

fn put_code_slice(out: &mut Vec<u8>, s: &CodeSlice) {
    put_string(out, &s.text);
    put_field_source(out, &s.source);
    out.put_u64_le(s.leaf.0 as u64);
    out.put_u64_le(s.path_hash);
    put_opt_string(out, s.piece.as_deref());
}

fn get_code_slice(r: &mut Reader) -> Result<CodeSlice, DecodeError> {
    Ok(CodeSlice {
        text: r.string()?,
        source: get_field_source(r)?,
        leaf: MftNodeId(r.u64()? as usize),
        path_hash: r.u64()?,
        piece: get_opt_string(r)?,
    })
}

fn put_message(out: &mut Vec<u8>, m: &ReconstructedMessage) {
    put_string(out, &m.delivery);
    put_transport(out, m.transport);
    put_opt_string(out, m.endpoint.as_deref());
    put_format(out, m.format);
    out.put_u32_le(m.fields.len() as u32);
    for f in &m.fields {
        put_opt_string(out, f.key.as_deref());
        put_field_source(out, &f.origin);
        put_opt_string(out, f.semantic.as_deref());
    }
    put_opt_string(out, m.template.as_deref());
}

fn get_message(r: &mut Reader) -> Result<ReconstructedMessage, DecodeError> {
    let delivery = r.string()?;
    let transport = get_transport(r)?;
    let endpoint = get_opt_string(r)?;
    let format = get_format(r)?;
    let n = r.seq_len()?;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        fields.push(MessageField {
            key: get_opt_string(r)?,
            origin: get_field_source(r)?,
            semantic: get_opt_string(r)?,
        });
    }
    let template = get_opt_string(r)?;
    Ok(ReconstructedMessage {
        delivery,
        transport,
        endpoint,
        format,
        fields,
        template,
    })
}

fn put_flaw(out: &mut Vec<u8>, f: &FormFlaw) {
    match f {
        FormFlaw::MissingPrimitives {
            phase,
            present,
            missing,
        } => {
            out.put_u8(0);
            put_phase(out, *phase);
            out.put_u32_le(present.len() as u32);
            for p in present {
                put_primitive(out, *p);
            }
            out.put_u32_le(missing.len() as u32);
            for p in missing {
                put_primitive(out, *p);
            }
        }
        FormFlaw::HardcodedDevSecret { key, value } => {
            out.put_u8(1);
            put_string(out, key);
            put_string(out, value);
        }
        FormFlaw::SecretFromReadableFile { key, config_key } => {
            out.put_u8(2);
            put_string(out, key);
            put_string(out, config_key);
        }
    }
}

fn get_flaw(r: &mut Reader) -> Result<FormFlaw, DecodeError> {
    Ok(match r.u8()? {
        0 => {
            let phase = get_phase(r)?;
            let n = r.seq_len()?;
            let mut present = Vec::with_capacity(n);
            for _ in 0..n {
                present.push(get_primitive(r)?);
            }
            let n = r.seq_len()?;
            let mut missing = Vec::with_capacity(n);
            for _ in 0..n {
                missing.push(get_primitive(r)?);
            }
            FormFlaw::MissingPrimitives {
                phase,
                present,
                missing,
            }
        }
        1 => FormFlaw::HardcodedDevSecret {
            key: r.string()?,
            value: r.string()?,
        },
        2 => FormFlaw::SecretFromReadableFile {
            key: r.string()?,
            config_key: r.string()?,
        },
        _ => return err("invalid FormFlaw tag"),
    })
}

/// Encode one [`MessageRecord`].
///
/// Public so unit-granular artifacts can persist a record as an opaque
/// blob and later splice the stored bytes verbatim into a
/// [`put_analysis`] stream without decoding.
pub fn put_record(out: &mut Vec<u8>, m: &MessageRecord) {
    put_string(out, &m.function);
    out.put_u64_le(m.callsite);
    put_mft(out, &m.mft);
    out.put_u32_le(m.slices.len() as u32);
    for s in &m.slices {
        put_code_slice(out, s);
    }
    out.put_u32_le(m.slice_semantics.len() as u32);
    for p in &m.slice_semantics {
        put_primitive(out, *p);
    }
    put_message(out, &m.message);
    out.put_u8(m.lan_discarded as u8);
    out.put_u8(m.is_response_echo as u8);
    out.put_u32_le(m.flaws.len() as u32);
    for f in &m.flaws {
        put_flaw(out, f);
    }
}

/// Decode one [`MessageRecord`].
pub fn get_record(r: &mut Reader) -> Result<MessageRecord, DecodeError> {
    let function = r.string()?;
    let callsite = r.u64()?;
    let mft = get_mft(r)?;
    let n = r.seq_len()?;
    let mut slices = Vec::with_capacity(n);
    for _ in 0..n {
        slices.push(get_code_slice(r)?);
    }
    let n = r.seq_len()?;
    let mut slice_semantics = Vec::with_capacity(n);
    for _ in 0..n {
        slice_semantics.push(get_primitive(r)?);
    }
    let message = get_message(r)?;
    let lan_discarded = r.boolean()?;
    let is_response_echo = r.boolean()?;
    let n = r.seq_len()?;
    let mut flaws = Vec::with_capacity(n);
    for _ in 0..n {
        flaws.push(get_flaw(r)?);
    }
    Ok(MessageRecord {
        function,
        callsite,
        mft,
        slices,
        slice_semantics,
        message,
        lan_discarded,
        is_response_echo,
        flaws,
    })
}

// ---- handlers, taint summaries, accounting ------------------------------

/// Encode one [`HandlerInfo`].
pub fn put_handler(out: &mut Vec<u8>, h: &HandlerInfo) {
    out.put_u64_le(h.handler_func);
    put_string(out, &h.handler_name);
    out.put_u64_le(h.recv_callsite);
    out.put_u64_le(h.send_callsite);
    out.put_u64_le(h.distance as u64);
    out.put_f64_le(h.score);
    out.put_u8(h.is_async as u8);
}

/// Decode one [`HandlerInfo`].
pub fn get_handler(r: &mut Reader) -> Result<HandlerInfo, DecodeError> {
    Ok(HandlerInfo {
        handler_func: r.u64()?,
        handler_name: r.string()?,
        recv_callsite: r.u64()?,
        send_callsite: r.u64()?,
        distance: r.u64()? as usize,
        score: r.f64()?,
        is_async: r.boolean()?,
    })
}

/// Encode one [`TaintSummary`].
pub fn put_taint_summary(out: &mut Vec<u8>, s: &TaintSummary) {
    out.put_u64_le(s.nodes as u64);
    out.put_u32_le(s.sources.len() as u32);
    for src in &s.sources {
        put_field_source(out, src);
    }
}

/// Decode one [`TaintSummary`].
pub fn get_taint_summary(r: &mut Reader) -> Result<TaintSummary, DecodeError> {
    let nodes = r.u64()? as usize;
    let n = r.seq_len()?;
    let mut sources = Vec::with_capacity(n);
    for _ in 0..n {
        sources.push(get_field_source(r)?);
    }
    Ok(TaintSummary { nodes, sources })
}

fn put_timings(out: &mut Vec<u8>, t: &StageTimings) {
    for d in [
        t.exeid,
        t.field_identification,
        t.semantics,
        t.concatenation,
        t.form_check,
    ] {
        out.put_u64_le(d.as_nanos() as u64);
    }
}

fn get_timings(r: &mut Reader) -> Result<StageTimings, DecodeError> {
    Ok(StageTimings {
        exeid: Duration::from_nanos(r.u64()?),
        field_identification: Duration::from_nanos(r.u64()?),
        semantics: Duration::from_nanos(r.u64()?),
        concatenation: Duration::from_nanos(r.u64()?),
        form_check: Duration::from_nanos(r.u64()?),
    })
}

/// The fixed counter block: one `u64` per [`Counter`], in
/// [`Counter::ALL`] order.
fn put_counters(out: &mut Vec<u8>, c: &StageCounters) {
    for counter in Counter::ALL {
        out.put_u64_le(c[counter]);
    }
}

fn get_counters(r: &mut Reader) -> Result<StageCounters, DecodeError> {
    let mut c = StageCounters::default();
    for counter in Counter::ALL {
        c[counter] = r.u64()?;
    }
    Ok(c)
}

/// Encode one [`Diagnostic`].
pub fn put_diagnostic(out: &mut Vec<u8>, d: &Diagnostic) {
    put_stage_kind(out, d.stage);
    put_severity(out, d.severity);
    put_opt_string(out, d.subject.as_deref());
    put_string(out, &d.detail);
}

/// Decode one [`Diagnostic`].
pub fn get_diagnostic(r: &mut Reader) -> Result<Diagnostic, DecodeError> {
    let stage = get_stage_kind(r)?;
    let severity = get_severity(r)?;
    let subject = get_opt_string(r)?;
    let detail = r.string()?;
    Ok(match subject {
        Some(s) => Diagnostic::new(stage, severity, s, detail),
        None => Diagnostic::bare(stage, severity, detail),
    })
}

/// Encode a full analysis stream from already-encoded message records.
///
/// Byte-for-byte equivalent to [`put_analysis`] on an analysis holding
/// the decoded forms of `records` — the unit-granular incremental driver
/// splices each clean unit's *stored* record bytes straight into the
/// output without ever decoding them, which is what makes a warm
/// re-analysis cheap.
pub fn put_analysis_spliced(
    out: &mut Vec<u8>,
    executable: Option<&str>,
    handlers: &[HandlerInfo],
    records: &[&[u8]],
    timings: &StageTimings,
    counters: &StageCounters,
    diagnostics: &[Diagnostic],
) {
    put_opt_string(out, executable);
    out.put_u32_le(handlers.len() as u32);
    for h in handlers {
        put_handler(out, h);
    }
    out.put_u32_le(records.len() as u32);
    for r in records {
        out.put_slice(r);
    }
    put_timings(out, timings);
    put_counters(out, counters);
    out.put_u32_le(diagnostics.len() as u32);
    for d in diagnostics {
        put_diagnostic(out, d);
    }
}

// ---- buffered events ----------------------------------------------------

/// Encode one buffered pipeline [`Event`].
///
/// These bytes are also the body of the service wire protocol's streamed
/// `Event` frame, so a change here needs a `PROTOCOL_VERSION` bump as
/// well as a `SCHEMA_VERSION` one.
pub fn put_event(out: &mut Vec<u8>, e: &Event) {
    match e {
        Event::StageStarted(stage) => {
            out.put_u8(0);
            put_stage_kind(out, *stage);
        }
        Event::StageFinished(stage, elapsed) => {
            out.put_u8(1);
            put_stage_kind(out, *stage);
            out.put_u64_le(elapsed.as_nanos() as u64);
        }
        Event::Count(counter, n) => {
            out.put_u8(2);
            out.put_u8(counter.tag());
            out.put_u64_le(*n);
        }
        Event::Diagnostic(d) => {
            out.put_u8(3);
            put_diagnostic(out, d);
        }
    }
}

/// Decode one buffered pipeline [`Event`].
pub fn get_event(r: &mut Reader) -> Result<Event, DecodeError> {
    Ok(match r.u8()? {
        0 => Event::StageStarted(get_stage_kind(r)?),
        1 => Event::StageFinished(get_stage_kind(r)?, Duration::from_nanos(r.u64()?)),
        2 => match Counter::from_tag(r.u8()?) {
            Some(counter) => Event::Count(counter, r.u64()?),
            None => return err("invalid Counter tag"),
        },
        3 => Event::Diagnostic(get_diagnostic(r)?),
        _ => return err("invalid Event tag"),
    })
}

/// Encode a [`StageEvents`] buffer (events in order plus elapsed time).
pub fn put_stage_events(out: &mut Vec<u8>, ev: &StageEvents) {
    out.put_u32_le(ev.events.len() as u32);
    for e in &ev.events {
        put_event(out, e);
    }
    out.put_u64_le(ev.elapsed.as_nanos() as u64);
}

/// Decode a [`StageEvents`] buffer.
pub fn get_stage_events(r: &mut Reader) -> Result<StageEvents, DecodeError> {
    let n = r.seq_len()?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(get_event(r)?);
    }
    let elapsed = Duration::from_nanos(r.u64()?);
    Ok(StageEvents { events, elapsed })
}

/// Encode the four per-stage buffers of one message unit.
pub fn put_unit_events(out: &mut Vec<u8>, ev: &UnitEvents) {
    put_stage_events(out, &ev.field_id);
    put_stage_events(out, &ev.semantics);
    put_stage_events(out, &ev.concat);
    put_stage_events(out, &ev.form_check);
}

/// Decode the four per-stage buffers of one message unit.
pub fn get_unit_events(r: &mut Reader) -> Result<UnitEvents, DecodeError> {
    Ok(UnitEvents {
        field_id: get_stage_events(r)?,
        semantics: get_stage_events(r)?,
        concat: get_stage_events(r)?,
        form_check: get_stage_events(r)?,
    })
}

// ---- full analysis ------------------------------------------------------

/// Encode a complete [`FirmwareAnalysis`].
pub fn put_analysis(out: &mut Vec<u8>, a: &FirmwareAnalysis) {
    put_opt_string(out, a.executable.as_deref());
    out.put_u32_le(a.handlers.len() as u32);
    for h in &a.handlers {
        put_handler(out, h);
    }
    out.put_u32_le(a.messages.len() as u32);
    for m in &a.messages {
        put_record(out, m);
    }
    put_timings(out, &a.timings);
    put_counters(out, &a.counters);
    out.put_u32_le(a.diagnostics.len() as u32);
    for d in &a.diagnostics {
        put_diagnostic(out, d);
    }
}

/// Decode a complete [`FirmwareAnalysis`].
pub fn get_analysis(r: &mut Reader) -> Result<FirmwareAnalysis, DecodeError> {
    let executable = get_opt_string(r)?;
    let n = r.seq_len()?;
    let mut handlers = Vec::with_capacity(n);
    for _ in 0..n {
        handlers.push(get_handler(r)?);
    }
    let n = r.seq_len()?;
    let mut messages = Vec::with_capacity(n);
    for _ in 0..n {
        messages.push(get_record(r)?);
    }
    let timings = get_timings(r)?;
    let counters = get_counters(r)?;
    let n = r.seq_len()?;
    let mut diagnostics = Vec::with_capacity(n);
    for _ in 0..n {
        diagnostics.push(get_diagnostic(r)?);
    }
    Ok(FirmwareAnalysis {
        executable,
        handlers,
        messages,
        timings,
        counters,
        diagnostics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sources() -> Vec<FieldSource> {
        vec![
            FieldSource::StringConstant {
                addr: 0x4000,
                value: "\"mac\":".to_string(),
            },
            FieldSource::NumericConstant { value: 42 },
            FieldSource::LibCall {
                kind: SourceKind::Nvram,
                callee: "nvram_get".to_string(),
                key: Some("sn".to_string()),
            },
            FieldSource::LibCall {
                kind: SourceKind::Time,
                callee: "time".to_string(),
                key: None,
            },
            FieldSource::EntryParam {
                func: "on_cmd".to_string(),
                index: 1,
            },
            FieldSource::Unresolved {
                reason: intern_unresolved_reason("budget exceeded"),
            },
        ]
    }

    #[test]
    fn field_sources_round_trip() {
        for src in sample_sources() {
            let mut out = Vec::new();
            put_field_source(&mut out, &src);
            let mut r = Reader::new(&out);
            assert_eq!(get_field_source(&mut r).unwrap(), src);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn handlers_round_trip_including_float_score() {
        let h = HandlerInfo {
            handler_func: 0x1000,
            handler_name: "handle_cmd".to_string(),
            recv_callsite: 0x1010,
            send_callsite: 0x2040,
            distance: 3,
            score: 0.625,
            is_async: true,
        };
        let mut out = Vec::new();
        put_handler(&mut out, &h);
        let got = get_handler(&mut Reader::new(&out)).unwrap();
        assert_eq!(got.handler_name, h.handler_name);
        assert_eq!(got.score.to_bits(), h.score.to_bits());
        assert!(got.is_async);
    }

    #[test]
    fn taint_summaries_round_trip() {
        let s = TaintSummary {
            nodes: 17,
            sources: sample_sources(),
        };
        let mut out = Vec::new();
        put_taint_summary(&mut out, &s);
        assert_eq!(get_taint_summary(&mut Reader::new(&out)).unwrap(), s);
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let s = TaintSummary {
            nodes: 3,
            sources: sample_sources(),
        };
        let mut out = Vec::new();
        put_taint_summary(&mut out, &s);
        for cut in 0..out.len() {
            // Every prefix must fail cleanly (no panic, no bogus value
            // that consumes the full buffer).
            let mut r = Reader::new(&out[..cut]);
            assert!(
                get_taint_summary(&mut r).is_err() || r.remaining() == 0,
                "prefix of {cut} bytes neither errored nor consumed cleanly"
            );
        }
    }

    #[test]
    fn unit_events_round_trip() {
        let mut ev = UnitEvents::default();
        ev.field_id
            .events
            .push(Event::StageStarted(StageKind::FieldId));
        ev.field_id.count(Counter::TaintQueries, 3);
        ev.field_id.count(Counter::SlicesRendered, 1);
        ev.field_id.events.push(Event::StageFinished(
            StageKind::FieldId,
            Duration::from_nanos(1234),
        ));
        ev.field_id.elapsed = Duration::from_nanos(1234);
        ev.semantics.diagnose(Diagnostic {
            stage: StageKind::Semantics,
            severity: Severity::Warning,
            subject: Some("d1".into()),
            detail: "unresolved".into(),
        });
        ev.form_check.count(Counter::FieldsMatched, 2);
        let mut out = Vec::new();
        put_unit_events(&mut out, &ev);
        let got = get_unit_events(&mut Reader::new(&out)).unwrap();
        assert_eq!(got.field_id.events, ev.field_id.events);
        assert_eq!(got.field_id.elapsed, ev.field_id.elapsed);
        assert_eq!(got.semantics.events, ev.semantics.events);
        assert_eq!(got.concat.events, ev.concat.events);
        assert_eq!(got.form_check.events, ev.form_check.events);
    }

    #[test]
    fn every_counter_tag_round_trips() {
        for c in [
            Counter::ExecutablesTried,
            Counter::ParseFailures,
            Counter::LiftFailures,
            Counter::TaintQueries,
            Counter::TaintCacheHits,
            Counter::SlicesRendered,
            Counter::FieldsMatched,
            Counter::CacheHits,
            Counter::CacheMisses,
            Counter::CacheBytesRead,
            Counter::CacheBytesWritten,
            Counter::LibFnsMatched,
            Counter::LibTraversalsSkipped,
            Counter::LibSummaryApplies,
            Counter::SlicesBatched,
            Counter::PrefilterSkips,
            Counter::ClassCacheHits,
        ] {
            let mut out = Vec::new();
            put_event(&mut out, &Event::Count(c, 42));
            assert_eq!(
                get_event(&mut Reader::new(&out)).unwrap(),
                Event::Count(c, 42)
            );
        }
    }

    #[test]
    fn truncated_unit_events_error_instead_of_panicking() {
        let mut ev = UnitEvents::default();
        ev.field_id.count(Counter::TaintQueries, 1);
        ev.semantics.diagnose(Diagnostic {
            stage: StageKind::Semantics,
            severity: Severity::Info,
            subject: None,
            detail: "m".into(),
        });
        let mut out = Vec::new();
        put_unit_events(&mut out, &ev);
        for cut in 0..out.len() {
            assert!(
                get_unit_events(&mut Reader::new(&out[..cut])).is_err(),
                "prefix of {cut} bytes decoded without error"
            );
        }
    }

    #[test]
    fn invalid_event_and_counter_tags_are_rejected() {
        let mut out = Vec::new();
        out.put_u8(9); // no such Event tag
        assert!(get_event(&mut Reader::new(&out)).is_err());
        let mut out = Vec::new();
        out.put_u8(2); // Count
        out.put_u8(200); // no such Counter tag
        out.put_u64_le(1);
        assert!(get_event(&mut Reader::new(&out)).is_err());
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        // A u32::MAX vector length must not attempt a giant allocation.
        let mut out = Vec::new();
        out.put_u64_le(1); // nodes
        out.put_u32_le(u32::MAX); // sources length
        assert!(get_taint_summary(&mut Reader::new(&out)).is_err());
    }

    fn field_node(id: usize, parent: usize) -> MftNode {
        MftNode {
            id: MftNodeId(id),
            parent: Some(MftNodeId(parent)),
            children: Vec::new(),
            kind: MftNodeKind::Field(FieldSource::NumericConstant { value: id as u64 }),
            op: None,
            func: 0,
        }
    }

    fn encode_mft_nodes(nodes: &[MftNode]) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_u32_le(nodes.len() as u32);
        for n in nodes {
            put_mft_node(&mut out, n);
        }
        out
    }

    fn root_with_children(children: &[usize]) -> MftNode {
        MftNode {
            id: MftNodeId(0),
            parent: None,
            children: children.iter().map(|&c| MftNodeId(c)).collect(),
            kind: MftNodeKind::Root {
                delivery: "SSL_write".to_string(),
            },
            op: None,
            func: 0,
        }
    }

    #[test]
    fn well_formed_mft_decodes() {
        let nodes = vec![
            root_with_children(&[1, 2]),
            field_node(1, 0),
            field_node(2, 0),
        ];
        let mft = get_mft(&mut Reader::new(&encode_mft_nodes(&nodes))).unwrap();
        assert_eq!(mft.len(), 3);
        assert_eq!(mft.leaves().len(), 2);
    }

    #[test]
    fn mft_with_out_of_bounds_child_is_rejected() {
        // Root points at child 7 but only 2 nodes exist: Mft::node would
        // panic on the unchecked index, so decoding must error instead.
        let nodes = vec![root_with_children(&[1, 7]), field_node(1, 0)];
        assert!(get_mft(&mut Reader::new(&encode_mft_nodes(&nodes))).is_err());
    }

    #[test]
    fn mft_with_cycle_is_rejected() {
        // Node 1 lists itself as a child: dfs_leaves would recurse forever.
        let mut cyclic = field_node(1, 0);
        cyclic.children.push(MftNodeId(1));
        let nodes = vec![root_with_children(&[1]), cyclic];
        assert!(get_mft(&mut Reader::new(&encode_mft_nodes(&nodes))).is_err());

        // Node 2 lists its ancestor (the root) as a child.
        let mut back = field_node(2, 1);
        back.children.push(MftNodeId(0));
        let mut mid = field_node(1, 0);
        mid.children.push(MftNodeId(2));
        let nodes = vec![root_with_children(&[1]), mid, back];
        assert!(get_mft(&mut Reader::new(&encode_mft_nodes(&nodes))).is_err());
    }

    #[test]
    fn mft_with_inconsistent_links_is_rejected() {
        // Child 2's parent back-reference says node 1, but the root
        // claims it as its own child.
        let nodes = vec![
            root_with_children(&[1, 2]),
            field_node(1, 0),
            field_node(2, 1),
        ];
        assert!(get_mft(&mut Reader::new(&encode_mft_nodes(&nodes))).is_err());

        // A node listed as a child twice would be traversed twice.
        let nodes = vec![root_with_children(&[1, 1]), field_node(1, 0)];
        assert!(get_mft(&mut Reader::new(&encode_mft_nodes(&nodes))).is_err());

        // A second root (no parent) unreachable from node 0.
        let mut orphan = field_node(1, 0);
        orphan.parent = None;
        let nodes = vec![root_with_children(&[]), orphan];
        assert!(get_mft(&mut Reader::new(&encode_mft_nodes(&nodes))).is_err());
    }

    #[test]
    fn bad_enum_tags_are_rejected() {
        let mut r = Reader::new(&[99]);
        assert!(get_field_source(&mut r).is_err());
        let mut r = Reader::new(&[200]);
        assert!(get_source_kind(&mut r).is_err());
        let mut r = Reader::new(&[7]);
        assert!(get_stage_kind(&mut r).is_err());
        let mut r = Reader::new(&[2]); // boolean must be 0 or 1
        assert!(r.boolean().is_err());
    }
}
