//! Disassemble an [`Executable`] and lift it into a [`firmres_ir::Program`].
//!
//! This is the stand-in for Ghidra's decompiler in the FIRMRES pipeline:
//! machine code bytes go in, a P-Code CFG with recovered symbols comes
//! out. The lifter:
//!
//! * splits each function into basic blocks at branch targets,
//! * maps the MR32 ABI onto IR varnodes (registers, `sp`-relative stack
//!   slots become [`firmres_ir::AddressSpace::Stack`] varnodes),
//! * fuses `lui`+`ori` constant materialization into a single `COPY` of the
//!   full 32-bit constant (what a decompiler's constant propagation shows),
//! * attaches function, parameter, local and data-pointer names from the
//!   MRE symbol table, and
//! * models calls with the callee's declared arity (imports use a
//!   signature table; unknown imports conservatively take all six argument
//!   registers — the "over-taint" strategy the paper adopts).

use crate::exe::{Executable, FuncSymbol};
use crate::{decode, DecodeError, Inst, Reg};
use firmres_ir::{import_address, BlockId, FunctionBuilder, Opcode, Program, Varnode};
use std::collections::BTreeMap;
use std::fmt;

/// Errors produced while lifting an executable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiftError {
    /// A code word failed to decode.
    Decode {
        /// Address of the bad word.
        addr: u32,
        /// The underlying decode error.
        err: DecodeError,
    },
    /// The executable has no function symbols.
    NoFunctions,
    /// A branch jumps outside its function.
    BranchOutOfRange {
        /// Address of the branch.
        addr: u32,
        /// Computed (invalid) target.
        target: i64,
    },
    /// A `jal` targets an address with no function symbol.
    CallTargetUnknown {
        /// Address of the call.
        addr: u32,
        /// The target address.
        target: u32,
    },
    /// A `callx` index is outside the import table.
    BadImportIndex {
        /// Address of the call.
        addr: u32,
        /// The out-of-range index.
        index: u16,
    },
    /// A function's extent, as laid out by the symbol table, covers an
    /// address with no code word (past the end of a truncated code image,
    /// or misaligned).
    AddressOutsideCode {
        /// The function whose body reaches outside the code.
        function: String,
        /// The first address without a code word.
        addr: u32,
    },
}

impl fmt::Display for LiftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiftError::Decode { addr, err } => write!(f, "at {addr:#x}: {err}"),
            LiftError::NoFunctions => write!(f, "executable has no function symbols"),
            LiftError::BranchOutOfRange { addr, target } => {
                write!(
                    f,
                    "branch at {addr:#x} targets {target:#x} outside its function"
                )
            }
            LiftError::CallTargetUnknown { addr, target } => {
                write!(
                    f,
                    "call at {addr:#x} targets {target:#x} which is not a function"
                )
            }
            LiftError::BadImportIndex { addr, index } => {
                write!(
                    f,
                    "callx at {addr:#x} references import #{index} beyond the table"
                )
            }
            LiftError::AddressOutsideCode { function, addr } => {
                write!(
                    f,
                    "function {function} extends to {addr:#x}, outside the code image"
                )
            }
        }
    }
}

impl std::error::Error for LiftError {}

/// Declared argument count for well-known library imports.
///
/// Unknown imports return 6 (all argument registers) — deliberate
/// over-approximation, matching the paper's over-taint strategy.
pub(crate) fn import_arity(name: &str) -> usize {
    match name {
        "puts" | "strlen" | "atoi" | "curl_easy_perform" | "free" | "getenv" | "nvram_get"
        | "cfg_get" | "cJSON_Print" | "cJSON_Delete" | "malloc" | "time" | "get_mac_addr"
        | "get_serial" | "get_dev_model" | "get_fw_version" | "get_uid" | "rand" => 1,
        "strcpy"
        | "strcat"
        | "strchr"
        | "strstr"
        | "fopen"
        | "cJSON_GetObjectItem"
        | "config_read"
        | "hmac_sign"
        | "itoa" => 2,
        "SSL_write"
        | "CyaSSL_write"
        | "write"
        | "read"
        | "memcpy"
        | "strncpy"
        | "memset"
        | "http_get"
        | "cJSON_AddStringToObject"
        | "cJSON_AddNumberToObject"
        | "md5_hex"
        | "sha256_hex" => 3,
        "send" | "recv" | "mosquitto_publish" | "mqtt_publish" | "http_post" | "fread"
        | "fwrite" | "ssl_connect" => 4,
        "sendto" | "recvfrom" => 6,
        // Variadic formatted output: take every argument register.
        "sprintf" | "snprintf" | "printf" | "fprintf" => 6,
        _ => 6,
    }
}

/// Lift `exe` into an IR [`Program`] named `name`.
///
/// # Errors
///
/// Returns a [`LiftError`] for undecodable words, branches or calls that
/// leave their function, or import references beyond the import table.
pub fn lift(exe: &Executable, name: &str) -> Result<Program, LiftError> {
    if exe.funcs.is_empty() {
        return Err(LiftError::NoFunctions);
    }
    let mut program = Program::new(name);
    program.set_data_segment(crate::DATA_BASE as u64, exe.data.clone());
    for imp in &exe.imports {
        program.add_import(import_address(imp), imp.clone());
    }
    let data_names: BTreeMap<u32, &str> = exe
        .data_syms
        .iter()
        .map(|(n, a)| (*a, n.as_str()))
        .collect();

    let mut funcs: Vec<&FuncSymbol> = exe.funcs.iter().collect();
    funcs.sort_by_key(|f| f.addr);
    for (i, fs) in funcs.iter().enumerate() {
        let end = funcs.get(i + 1).map_or(exe.code_end(), |n| n.addr);
        let func = lift_function(exe, fs, end, &data_names)?;
        program.add_function(func);
    }
    Ok(program)
}

fn lift_function(
    exe: &Executable,
    fs: &FuncSymbol,
    end: u32,
    data_names: &BTreeMap<u32, &str>,
) -> Result<firmres_ir::Function, LiftError> {
    // Decode the function body.
    let mut insts: Vec<(u32, Inst)> = Vec::new();
    let mut addr = fs.addr;
    while addr < end {
        // The symbol table is untrusted: a function symbol (or the next
        // one, which bounds this body) may point past the code.
        let word = exe
            .word_at(addr)
            .ok_or_else(|| LiftError::AddressOutsideCode {
                function: fs.name.clone(),
                addr,
            })?;
        let inst = decode(word).map_err(|err| LiftError::Decode { addr, err })?;
        insts.push((addr, inst));
        addr += 4;
    }

    // Compute leaders.
    let mut leaders = std::collections::BTreeSet::new();
    leaders.insert(fs.addr);
    for &(addr, inst) in &insts {
        if let Some(off) = inst.branch_offset() {
            let target = addr as i64 + off as i64 * 4;
            if target < fs.addr as i64 || target >= end as i64 {
                return Err(LiftError::BranchOutOfRange { addr, target });
            }
            leaders.insert(target as u32);
            if addr + 4 < end {
                leaders.insert(addr + 4);
            }
        } else if inst.is_terminator() && addr + 4 < end {
            leaders.insert(addr + 4);
        }
    }

    let mut fb = FunctionBuilder::new(&fs.name, fs.addr as u64);
    for p in &fs.params {
        fb.param(p, 4);
    }
    // Name recovered stack locals from the symbol table.
    let func_index = exe
        .funcs
        .iter()
        .position(|f| f.addr == fs.addr)
        .expect("function exists") as u32;
    for l in exe.locals.iter().filter(|l| l.func_index == func_index) {
        fb.name_local(&Varnode::stack(l.offset as i64, 4), &l.name);
    }

    // Allocate blocks in address order; block 0 already exists.
    let leader_list: Vec<u32> = leaders.iter().copied().collect();
    let mut block_of: BTreeMap<u32, BlockId> = BTreeMap::new();
    for (i, &leader) in leader_list.iter().enumerate() {
        let bid = if i == 0 { BlockId(0) } else { fb.new_block() };
        block_of.insert(leader, bid);
    }

    let mut ctx = LiftCtx {
        fb,
        exe,
        data_names,
    };
    let mut idx = 0usize;
    while idx < insts.len() {
        let (addr, inst) = insts[idx];
        if let Some(bid) = block_of.get(&addr) {
            // Starting a new block: if the previous one fell through without
            // a terminator, add an explicit jump.
            if idx > 0 {
                let (_, prev) = insts[idx - 1];
                if !prev.is_terminator() {
                    ctx.fb.jump(*bid);
                }
            }
            ctx.fb.switch_to(*bid);
        }
        // lui+ori constant fusion (never split across blocks: the assembler
        // emits the pair adjacently and nothing branches between them).
        if let (Inst::Lui(rd, hi), Some(&(next_addr, Inst::Ori(rd2, rs2, lo)))) =
            (inst, insts.get(idx + 1))
        {
            let next_is_leader = block_of.contains_key(&next_addr);
            if rd == rd2 && rd == rs2 && !next_is_leader {
                let value = (hi << 14) | (lo as u32 & 0x3FFF);
                ctx.emit_const(rd, value);
                idx += 2;
                continue;
            }
        }
        ctx.translate(addr, inst, &insts, idx, &block_of)?;
        idx += 1;
    }
    Ok(ctx.fb.finish())
}

struct LiftCtx<'a> {
    fb: FunctionBuilder,
    exe: &'a Executable,
    data_names: &'a BTreeMap<u32, &'a str>,
}

impl LiftCtx<'_> {
    fn read(&self, r: Reg) -> Varnode {
        if r == Reg::ZERO {
            Varnode::constant(0, 4)
        } else {
            Varnode::register(r.num() as u64, 4)
        }
    }

    fn write(&mut self, r: Reg) -> Option<Varnode> {
        if r == Reg::ZERO {
            None
        } else {
            Some(Varnode::register(r.num() as u64, 4))
        }
    }

    fn emit_const(&mut self, rd: Reg, value: u32) {
        let k = Varnode::constant(value as u64, 4);
        if let Some(name) = self.data_names.get(&value) {
            self.fb.name_data_ptr(&k, *name);
        }
        if let Some(out) = self.write(rd) {
            self.fb.emit(Opcode::Copy, Some(out), vec![k]);
        }
    }

    fn binary(&mut self, opcode: Opcode, d: Reg, a: Varnode, b: Varnode) {
        if let Some(out) = self.write(d) {
            self.fb.emit(opcode, Some(out), vec![a, b]);
        }
    }

    fn call_args(&self, arity: usize) -> Vec<Varnode> {
        (0..arity.min(6))
            .map(|i| Varnode::register(Reg::arg(i as u8).expect("<=6").num() as u64, 4))
            .collect()
    }

    fn rv(&self) -> Varnode {
        Varnode::register(Reg::RV.num() as u64, 4)
    }

    #[allow(clippy::too_many_lines)]
    fn translate(
        &mut self,
        addr: u32,
        inst: Inst,
        insts: &[(u32, Inst)],
        idx: usize,
        block_of: &BTreeMap<u32, BlockId>,
    ) -> Result<(), LiftError> {
        use Inst::*;
        match inst {
            Add(d, a, b) => {
                let (va, vb) = (self.read(a), self.read(b));
                self.binary(Opcode::IntAdd, d, va, vb);
            }
            Sub(d, a, b) => {
                let (va, vb) = (self.read(a), self.read(b));
                self.binary(Opcode::IntSub, d, va, vb);
            }
            Mul(d, a, b) => {
                let (va, vb) = (self.read(a), self.read(b));
                self.binary(Opcode::IntMult, d, va, vb);
            }
            Div(d, a, b) => {
                let (va, vb) = (self.read(a), self.read(b));
                self.binary(Opcode::IntDiv, d, va, vb);
            }
            Rem(d, a, b) => {
                let (va, vb) = (self.read(a), self.read(b));
                self.binary(Opcode::IntRem, d, va, vb);
            }
            And(d, a, b) => {
                let (va, vb) = (self.read(a), self.read(b));
                self.binary(Opcode::IntAnd, d, va, vb);
            }
            Or(d, a, b) => {
                let (va, vb) = (self.read(a), self.read(b));
                self.binary(Opcode::IntOr, d, va, vb);
            }
            Xor(d, a, b) => {
                let (va, vb) = (self.read(a), self.read(b));
                self.binary(Opcode::IntXor, d, va, vb);
            }
            Sll(d, a, b) => {
                let (va, vb) = (self.read(a), self.read(b));
                self.binary(Opcode::IntLeft, d, va, vb);
            }
            Srl(d, a, b) => {
                let (va, vb) = (self.read(a), self.read(b));
                self.binary(Opcode::IntRight, d, va, vb);
            }
            Sra(d, a, b) => {
                let (va, vb) = (self.read(a), self.read(b));
                self.binary(Opcode::IntSRight, d, va, vb);
            }
            Slt(d, a, b) => {
                let (va, vb) = (self.read(a), self.read(b));
                self.binary(Opcode::IntSLess, d, va, vb);
            }
            Seq(d, a, b) => {
                let (va, vb) = (self.read(a), self.read(b));
                self.binary(Opcode::IntEqual, d, va, vb);
            }
            Addi(d, a, i) => {
                if d == Reg::ZERO {
                    return Ok(()); // canonical nop
                }
                if d == Reg::SP && a == Reg::SP {
                    // Frame setup/teardown: a decompiler normalizes the
                    // frame away, keeping `sp` constant across the body so
                    // stack slots and `lea`-derived pointers agree.
                    return Ok(());
                }
                // `addi rd, sp, off` is the address of a stack local.
                let va = self.read(a);
                self.binary(Opcode::IntAdd, d, va, Varnode::constant(i as i64 as u64, 4));
            }
            Andi(d, a, i) => {
                let va = self.read(a);
                self.binary(Opcode::IntAnd, d, va, Varnode::constant(i as i64 as u64, 4));
            }
            Ori(d, a, i) => {
                // Zero-extended immediate (see the encoder).
                let va = self.read(a);
                self.binary(
                    Opcode::IntOr,
                    d,
                    va,
                    Varnode::constant(i as u64 & 0x3FFF, 4),
                );
            }
            Xori(d, a, i) => {
                let va = self.read(a);
                self.binary(Opcode::IntXor, d, va, Varnode::constant(i as i64 as u64, 4));
            }
            Slli(d, a, i) => {
                let va = self.read(a);
                self.binary(Opcode::IntLeft, d, va, Varnode::constant(i as u64, 4));
            }
            Srli(d, a, i) => {
                let va = self.read(a);
                self.binary(Opcode::IntRight, d, va, Varnode::constant(i as u64, 4));
            }
            Lui(d, imm) => self.emit_const(d, imm << 14),
            Lw(d, base, off) | Lb(d, base, off) => {
                if base == Reg::SP {
                    // Decompiled view: stack slots are named variables.
                    let slot = Varnode::stack(off as i64, 4);
                    if let Some(out) = self.write(d) {
                        self.fb.emit(Opcode::Copy, Some(out), vec![slot]);
                    }
                } else {
                    let vb = self.read(base);
                    let a = self.fb.add(vb, Varnode::constant(off as i64 as u64, 4));
                    if let Some(out) = self.write(d) {
                        self.fb.emit(Opcode::Load, Some(out), vec![a]);
                    }
                }
            }
            Sw(s, base, off) | Sb(s, base, off) => {
                let vs = self.read(s);
                if base == Reg::SP {
                    let slot = Varnode::stack(off as i64, 4);
                    self.fb.emit(Opcode::Copy, Some(slot), vec![vs]);
                } else {
                    let vb = self.read(base);
                    let a = self.fb.add(vb, Varnode::constant(off as i64 as u64, 4));
                    self.fb.emit(Opcode::Store, None, vec![a, vs]);
                }
            }
            Beq(a, b, off) | Bne(a, b, off) | Blt(a, b, off) | Bge(a, b, off) => {
                let target = (addr as i64 + off as i64 * 4) as u32;
                let then_block = block_of[&target];
                if inst.is_unconditional_branch() {
                    self.fb.jump(then_block);
                    return Ok(());
                }
                let (va, vb) = (self.read(a), self.read(b));
                let cond = match inst {
                    Beq(..) => self.fb.binop(Opcode::IntEqual, va, vb),
                    Bne(..) => self.fb.binop(Opcode::IntNotEqual, va, vb),
                    Blt(..) => self.fb.binop(Opcode::IntSLess, va, vb),
                    Bge(..) => {
                        let lt = self.fb.binop(Opcode::IntSLess, va, vb);
                        let out = self.fb.temp(1);
                        self.fb
                            .emit(Opcode::BoolNegate, Some(out.clone()), vec![lt]);
                        out
                    }
                    _ => unreachable!("matched conditional branch"),
                };
                let fallthrough = insts
                    .get(idx + 1)
                    .map(|(a, _)| *a)
                    .and_then(|a| block_of.get(&a).copied());
                match fallthrough {
                    Some(else_block) => self.fb.cbranch(cond, then_block, else_block),
                    // Branch in the function's final slot: no fallthrough.
                    None => self.fb.cbranch(cond, then_block, then_block),
                }
            }
            Jal(off) => {
                let target = (addr as i64 + off as i64 * 4) as u32;
                let callee = self
                    .exe
                    .funcs
                    .iter()
                    .find(|f| f.addr == target)
                    .ok_or(LiftError::CallTargetUnknown { addr, target })?;
                let args = self.call_args(callee.params.len());
                let mut inputs = vec![Varnode::constant(target as u64, 8)];
                inputs.extend(args);
                let rv = self.rv();
                self.fb.emit(Opcode::Call, Some(rv), inputs);
            }
            Jalr(rd, rs) => {
                if inst.is_ret() {
                    let rv = self.rv();
                    self.fb.emit(Opcode::Return, None, vec![rv]);
                } else {
                    let target = self.read(rs);
                    let mut inputs = vec![target];
                    inputs.extend(self.call_args(6));
                    let out = self.write(rd);
                    self.fb.emit(Opcode::CallInd, out, inputs);
                }
            }
            Callx(index) => {
                let name = self
                    .exe
                    .imports
                    .get(index as usize)
                    .ok_or(LiftError::BadImportIndex { addr, index })?;
                let target = import_address(name);
                let args = self.call_args(import_arity(name));
                let mut inputs = vec![Varnode::constant(target, 8)];
                inputs.extend(args);
                let rv = self.rv();
                self.fb.emit(Opcode::Call, Some(rv), inputs);
            }
            Halt => {
                self.fb.emit(Opcode::Return, None, vec![]);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Assembler;

    fn lift_src(src: &str) -> Program {
        let exe = Assembler::new().assemble(src).unwrap();
        lift(&exe, "test").unwrap()
    }

    #[test]
    fn lifts_straight_line_with_imports() {
        let p = lift_src(
            r#"
.func main
.local buf 32
    lea a0, buf
    la  a1, fmt
    callx sprintf
    lea a0, buf
    callx SSL_write
    ret
.endfunc
.data
fmt: .asciz "{\"mac\":\"%s\"}"
"#,
        );
        let f = p.function_by_name("main").unwrap();
        assert_eq!(f.blocks().len(), 1);
        assert_eq!(f.callsites().count(), 2);
        // The la expands to a fused COPY of the data address.
        let copies: Vec<_> = f
            .ops()
            .filter(|o| o.opcode == Opcode::Copy && o.inputs[0].is_const())
            .collect();
        assert!(
            copies
                .iter()
                .any(|o| p.string_for(&o.inputs[0]) == Some("{\"mac\":\"%s\"}")),
            "fused constant points at the format string"
        );
        // Imports resolved by name.
        let names: Vec<_> = f
            .callsites()
            .filter_map(|c| c.call_target())
            .filter_map(|t| p.callee_name(t))
            .collect();
        assert_eq!(names, vec!["sprintf", "SSL_write"]);
        // sprintf is variadic: all 6 argument registers are call args.
        let sp = f.callsites().next().unwrap();
        assert_eq!(sp.call_args().len(), 6);
        // SSL_write has a 3-argument signature.
        let ssl = f.callsites().nth(1).unwrap();
        assert_eq!(ssl.call_args().len(), 3);
    }

    #[test]
    fn lifts_branches_into_cfg() {
        let p = lift_src(
            r#"
.func main
    li  t0, 3
loop:
    addi t0, t0, -1
    bne  t0, zero, loop
    ret
.endfunc
"#,
        );
        let f = p.function_by_name("main").unwrap();
        assert_eq!(f.blocks().len(), 3, "entry, loop body, exit");
        // The loop block branches back to itself and forward to the exit.
        let loop_block = &f.blocks()[1];
        assert_eq!(loop_block.successors.len(), 2);
        assert!(loop_block.successors.contains(&BlockId(1)));
        assert!(loop_block.successors.contains(&BlockId(2)));
        assert_eq!(f.predicate_count(), 1);
    }

    #[test]
    fn stack_slots_become_named_locals() {
        let p = lift_src(
            r#"
.func f x
.local count 4
    sw  a0, count(sp)
    lw  rv, count(sp)
    ret
.endfunc
"#,
        );
        let f = p.function_by_name("f").unwrap();
        // sw/lw on sp lift to COPYs of the stack varnode, not LOAD/STORE.
        assert!(f
            .ops()
            .all(|o| o.opcode != Opcode::Load && o.opcode != Opcode::Store));
        let slot = Varnode::stack(0, 4);
        assert_eq!(f.symbols().lookup(&slot).unwrap().name, "count");
        assert_eq!(f.params().len(), 1);
        assert_eq!(
            f.symbols().lookup(&f.params()[0]).unwrap().name,
            "x",
            "parameter name from the MRE symbol table"
        );
    }

    #[test]
    fn intra_program_calls_use_callee_arity() {
        let p = lift_src(
            r#"
.func helper a b
    add rv, a0, a1
    ret
.endfunc
.func main
    li a0, 1
    li a1, 2
    call helper
    halt
.endfunc
"#,
        );
        let main = p.function_by_name("main").unwrap();
        let call = main.callsites().next().unwrap();
        assert_eq!(call.call_args().len(), 2, "helper takes 2 params");
        let helper = p.function_by_name("helper").unwrap();
        assert_eq!(call.call_target(), Some(helper.entry()));
    }

    #[test]
    fn non_sp_memory_accesses_stay_loads_and_stores() {
        let p = lift_src(
            r#"
.func f p
    lw t0, 4(a0)
    sw t0, 8(a0)
    ret
.endfunc
"#,
        );
        let f = p.function_by_name("f").unwrap();
        assert_eq!(f.ops().filter(|o| o.opcode == Opcode::Load).count(), 1);
        assert_eq!(f.ops().filter(|o| o.opcode == Opcode::Store).count(), 1);
    }

    #[test]
    fn data_pointer_constants_get_symbol_names() {
        let p =
            lift_src(".func main\n la a0, path\n ret\n.endfunc\n.data\npath: .asciz \"/api/v1\"\n");
        let f = p.function_by_name("main").unwrap();
        let copy = f.ops().find(|o| o.opcode == Opcode::Copy).unwrap();
        let sym = f.symbols().lookup(&copy.inputs[0]).unwrap();
        assert_eq!(sym.name, "path");
        assert_eq!(sym.data_type, firmres_ir::DataType::DataPtr);
    }

    #[test]
    fn bad_import_index_reported() {
        // Hand-craft an executable with a callx beyond the import table.
        let mut exe = Assembler::new()
            .assemble(".func main\n callx puts\n ret\n.endfunc\n")
            .unwrap();
        exe.imports.clear();
        match lift(&exe, "t") {
            Err(LiftError::BadImportIndex { index: 0, .. }) => {}
            other => panic!("expected BadImportIndex, got {other:?}"),
        }
    }

    #[test]
    fn no_functions_rejected() {
        let exe = Executable::default();
        assert_eq!(lift(&exe, "t").unwrap_err(), LiftError::NoFunctions);
    }
}
