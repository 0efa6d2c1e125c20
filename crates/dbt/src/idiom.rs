//! The built-in guest-idiom rules over the LIR: NZCV-free compare+branch
//! fusion and scaled-index address folding.
//!
//! The generic pipeline ([`crate::opt`] + the allocator's DCE) removes work
//! the guest program cannot observe, but it never changes *shape*: a guest
//! `CMP/SUBS + B.cond` still materialises all four NZCV flags into the
//! register file and re-derives the condition from them with a dozen ALU
//! operations, and an address computed as `base + (index << k)` still lowers
//! insn-by-insn.  This module is the *idiom layer*: a small, fixed set of
//! multi-instruction guest patterns recognised on the raw LIR and rewritten
//! into the host shape a human translator would have written.  Each rule
//! rewrites wherever it matches and passes the soundness contract below.
//!
//! # The rules
//!
//! Four rules: three branch fusions and one address fold.
//!
//! * **`fuse.cmpbr`** — an NZCV nibble produced by the subtract-shaped
//!   `set_nzcv` chain (`V|C<<1|Z<<2|N<<3` with `C = a >=u b`,
//!   `Z/N = cmp(a-b, 0)`, `V` the sign of the overflow mask) and consumed by
//!   a conditional branch whose condition value is a pure bit-extraction of
//!   that nibble.  The `Test cv,cv; Jcc` pair is rewritten to a single host
//!   `Cmp a,b; Jcc cc` with the guest condition mapped onto the host flags
//!   the compare sets directly — x86 `SUB` flags are AArch64 `SUBS` flags
//!   with the carry inverted, so all fourteen guest conditions map.  The
//!   whole consumer chain (NZCV load + extraction ALUs) dies with its last
//!   use and is swept by the allocator; the producer's store stays, keeping
//!   the architectural NZCV exact at every observer.
//! * **`fuse.tstbr`** — same consumer, but the producer is the logic-shaped
//!   chain (`Z<<2|N<<3`, carry and overflow cleared).  Rewritten to
//!   `Test r,r; Jcc cc`.  `Hi`/`Ls` consult the cleared carry in a way host
//!   `TEST` flags cannot express with one condition, so those two are
//!   conservatively refused; the other twelve map.
//! * **`fuse.cbz`** — a compare materialised straight into a 0/1 value
//!   (`Cmp; SetCc`) and branched on (`CBZ`/`CBNZ`, which never touch NZCV).
//!   The re-test of the materialised boolean is replaced by re-issuing the
//!   compare at the branch: `Cmp a,b; Jcc cc`.
//! * **`addr.fold`** — an address built as `t = x + y` (optionally with
//!   `y = i << k`, `k <= 3`) feeding a memory operand is folded into the
//!   x86 scaled-index addressing mode `[x + i*2^k + disp]`; the arithmetic
//!   chain goes dead and the addressing mode is free in the cost model.
//!
//! # Soundness contract
//!
//! Every fusion site must pass, in addition to its structural match:
//!
//! * **Flag deadness** — the host flags set by the fused compare must be
//!   provably dead after the branch, by the same fixpoint flag-demand
//!   analysis the register allocator uses
//!   ([`crate::regalloc::host_flags_live_after`]), computed with every
//!   instruction treated as kept so the answer holds whatever DCE later
//!   removes.  A side-exit `Ret` clears demand (host flags are not guest
//!   state); a `SetCc`/`CmovCc`/`Jcc` reachable after the branch keeps the
//!   site unfused.
//! * **Value stability** — the operands re-read at the fusion point must
//!   have the same reaching definition they had at the producer's own
//!   compare, and the traced spans must contain no joins (`Label`), calls,
//!   or unit exits that could let another path supply a different NZCV or
//!   operand value.  `TraceEdge` is deliberately transparent: fusing a
//!   compare in one stitched constituent with the branch in the next is
//!   the superblock payoff.
//! * **Nibble identity** — the producer chain is not pattern-matched
//!   syntactically: its leaves (the `SetCc`s and the overflow shift) are
//!   discovered and the combining expression is *evaluated* over all leaf
//!   assignments; only a chain that packs exactly `V|C<<1|Z<<2|N<<3` (or
//!   `Z<<2|N<<3`) classifies.  The consumer is evaluated the same way over
//!   all sixteen nibble values and matched against the guest condition
//!   truth tables.  An `ADDS`-shaped producer (different carry polarity)
//!   fails classification and is never fused.
//!
//! # One rule set
//!
//! The rules are built in, and [`RuleTable::builtin`] is the table every
//! engine runs: the table carries no switches, only the one piece of guest
//! layout the recogniser needs.  Whether the layer runs at all is a codegen
//! knob of the engine, packed into the translation-reuse key
//! ([`crate::reuse::pack_knobs`]).  Rewrites are counted per rule in
//! [`IdiomStats::fused`].

use crate::lir::{LirBase, LirInsn, LirMem, LirOperand, RegFileAccess, Vreg, VregClass};
use crate::opt::OptScratch;
use crate::regalloc::{host_flags_live_after, host_flags_live_after_at};
use hvm::{AluOp, Cond, MemSize};

/// Number of shipped rules (indexes [`IdiomStats::fused`] and the per-rule
/// counters).
pub const RULE_COUNT: usize = 4;

/// The shipped rule kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleKind {
    /// Subtract-producer compare+branch fusion.
    FuseCmpBr,
    /// Logic-producer (flags-from-`ANDS`-style) compare+branch fusion.
    FuseTstBr,
    /// `CBZ`/`CBNZ`-style materialised-boolean branch fusion.
    FuseCbz,
    /// Shift/add address chains folded into scaled-index operands.
    AddrFold,
}

impl RuleKind {
    /// All rules, in stats-index order.
    pub const ALL: [RuleKind; RULE_COUNT] = [
        RuleKind::FuseCmpBr,
        RuleKind::FuseTstBr,
        RuleKind::FuseCbz,
        RuleKind::AddrFold,
    ];

    /// Index into the per-rule stats arrays.
    pub fn index(self) -> usize {
        match self {
            RuleKind::FuseCmpBr => 0,
            RuleKind::FuseTstBr => 1,
            RuleKind::FuseCbz => 2,
            RuleKind::AddrFold => 3,
        }
    }

    /// Stable external name (figures, counters).
    pub fn name(self) -> &'static str {
        match self {
            RuleKind::FuseCmpBr => "fuse.cmpbr",
            RuleKind::FuseTstBr => "fuse.tstbr",
            RuleKind::FuseCbz => "fuse.cbz",
            RuleKind::AddrFold => "addr.fold",
        }
    }
}

/// What the idiom layer needs to know about the guest frontend.  The rules
/// themselves are fixed; every one rewrites wherever it matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleTable {
    /// Byte offset of the guest NZCV slot in the register file.  The
    /// recogniser is otherwise frontend-agnostic; this is the one piece of
    /// guest layout it needs.
    pub nzcv_off: i32,
}

/// Default NZCV slot offset (the AArch64 frontend's register-file layout).
pub const DEFAULT_NZCV_OFF: i32 = 256;

impl RuleTable {
    /// The rule set for a frontend whose NZCV slot is at `nzcv_off`.
    pub const fn new(nzcv_off: i32) -> RuleTable {
        RuleTable { nzcv_off }
    }

    /// The AArch64 frontend's table: the one every engine runs.
    pub fn builtin() -> &'static RuleTable {
        static TABLE: RuleTable = RuleTable::new(DEFAULT_NZCV_OFF);
        &TABLE
    }
}

/// Per-translation idiom counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdiomStats {
    /// Sites rewritten, per rule.
    pub fused: [u32; RULE_COUNT],
}

impl IdiomStats {
    /// Total rewrites across all rules.
    pub fn total_fused(&self) -> u32 {
        self.fused.iter().sum()
    }

    /// Accumulate another translation's counters.
    pub fn merge(&mut self, other: &IdiomStats) {
        for i in 0..RULE_COUNT {
            self.fused[i] += other.fused[i];
        }
    }
}

// ---------------------------------------------------------------------------
// Shared recogniser plumbing
// ---------------------------------------------------------------------------

/// Index of the last definition of `v` strictly before `idx`.
fn last_def_before(lir: &[LirInsn], v: Vreg, idx: usize) -> Option<usize> {
    lir[..idx].iter().rposition(|i| i.def() == Some(v))
}

/// True when `v` has the same reaching definition at positions `a` and `b`
/// (reading just before each) — the value re-read at `b` is the value that
/// was read at `a`.
fn same_reaching_def(lir: &[LirInsn], v: Vreg, a: usize, b: usize) -> bool {
    let da = last_def_before(lir, v, a);
    da.is_some() && da == last_def_before(lir, v, b)
}

fn operand_stable(lir: &[LirInsn], op: LirOperand, a: usize, b: usize) -> bool {
    match op {
        LirOperand::Imm(_) => true,
        LirOperand::Vreg(v) => same_reaching_def(lir, v, a, b),
    }
}

/// The fixed NZCV regfile slot.
fn nzcv_slot(nzcv_off: i32) -> RegFileAccess {
    RegFileAccess {
        offset: nzcv_off,
        size: MemSize::U64,
    }
}

fn apply_alu(op: AluOp, a: u64, b: u64) -> Option<u64> {
    Some(match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl((b & 63) as u32),
        AluOp::Shr => a.wrapping_shr((b & 63) as u32),
        AluOp::Sar => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Guest condition truth tables
// ---------------------------------------------------------------------------

/// The fourteen non-trivial AArch64 condition codes, evaluated over the
/// NZCV nibble (`V = bit 0`, `C = bit 1`, `Z = bit 2`, `N = bit 3` — the
/// frontend's packing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GuestCc {
    Eq,
    Ne,
    Cs,
    Cc,
    Mi,
    Pl,
    Vs,
    Vc,
    Hi,
    Ls,
    Ge,
    Lt,
    Gt,
    Le,
}

const GUEST_CCS: [GuestCc; 14] = [
    GuestCc::Eq,
    GuestCc::Ne,
    GuestCc::Cs,
    GuestCc::Cc,
    GuestCc::Mi,
    GuestCc::Pl,
    GuestCc::Vs,
    GuestCc::Vc,
    GuestCc::Hi,
    GuestCc::Ls,
    GuestCc::Ge,
    GuestCc::Lt,
    GuestCc::Gt,
    GuestCc::Le,
];

fn guest_holds(g: GuestCc, nzcv: u64) -> bool {
    let v = nzcv & 1 != 0;
    let c = (nzcv >> 1) & 1 != 0;
    let z = (nzcv >> 2) & 1 != 0;
    let n = (nzcv >> 3) & 1 != 0;
    match g {
        GuestCc::Eq => z,
        GuestCc::Ne => !z,
        GuestCc::Cs => c,
        GuestCc::Cc => !c,
        GuestCc::Mi => n,
        GuestCc::Pl => !n,
        GuestCc::Vs => v,
        GuestCc::Vc => !v,
        GuestCc::Hi => c && !z,
        GuestCc::Ls => !c || z,
        GuestCc::Ge => n == v,
        GuestCc::Lt => n != v,
        GuestCc::Gt => !z && n == v,
        GuestCc::Le => z || n != v,
    }
}

/// Host condition after a fused `Cmp a, b` for a subtract-shaped producer.
/// x86 `SUB` flags are AArch64 `SUBS` flags with inverted carry
/// (`CF = borrow`, guest `C = !borrow`), so every code maps.
fn host_for_sub(g: GuestCc) -> Cond {
    match g {
        GuestCc::Eq => Cond::Eq,
        GuestCc::Ne => Cond::Ne,
        GuestCc::Cs => Cond::Ge,
        GuestCc::Cc => Cond::Lt,
        GuestCc::Mi => Cond::Mi,
        GuestCc::Pl => Cond::Pl,
        GuestCc::Vs => Cond::Vs,
        GuestCc::Vc => Cond::Vc,
        GuestCc::Hi => Cond::Gt,
        GuestCc::Ls => Cond::Le,
        GuestCc::Ge => Cond::SGe,
        GuestCc::Lt => Cond::SLt,
        GuestCc::Gt => Cond::SGt,
        GuestCc::Le => Cond::SLe,
    }
}

/// Host condition after a fused `Test r, r` for a logic-shaped producer
/// (guest C and V architecturally zero; host CF and OF cleared by `TEST`).
/// `Hi`/`Ls` mix the cleared carry with Z in a way that has no single host
/// condition under this encoding, so they are refused.
fn host_for_logic(g: GuestCc) -> Option<Cond> {
    Some(match g {
        GuestCc::Eq => Cond::Eq,
        GuestCc::Ne => Cond::Ne,
        // Guest C is 0: Cs is constant-false, Cc constant-true.  Host CF is
        // 0 after TEST: Lt is constant-false, Ge constant-true.
        GuestCc::Cs => Cond::Lt,
        GuestCc::Cc => Cond::Ge,
        GuestCc::Mi => Cond::Mi,
        GuestCc::Pl => Cond::Pl,
        // Guest V is 0 and host OF is 0: both constant.
        GuestCc::Vs => Cond::Vs,
        GuestCc::Vc => Cond::Vc,
        GuestCc::Ge => Cond::SGe,
        GuestCc::Lt => Cond::SLt,
        GuestCc::Gt => Cond::SGt,
        GuestCc::Le => Cond::SLe,
        GuestCc::Hi | GuestCc::Ls => return None,
    })
}

// ---------------------------------------------------------------------------
// Consumer recognition: cv as a function of the NZCV nibble
// ---------------------------------------------------------------------------

/// Evaluates the value of `v` just before `before`, treating loads of the
/// NZCV slot as the symbolic input `nzcv_val`.  Only pure, frontend-emitted
/// chain shapes evaluate; anything else aborts the match.  Root load
/// indices are appended to `roots`.
fn eval_consumer(
    lir: &[LirInsn],
    v: Vreg,
    before: usize,
    nzcv_off: i32,
    nzcv_val: u64,
    roots: &mut Vec<usize>,
    depth: u32,
) -> Option<u64> {
    if depth > 24 {
        return None;
    }
    let i = last_def_before(lir, v, before)?;
    match &lir[i] {
        LirInsn::Load { .. } => {
            let slot = lir[i].regfile_load()?;
            if slot == nzcv_slot(nzcv_off) {
                roots.push(i);
                Some(nzcv_val)
            } else {
                None
            }
        }
        LirInsn::MovImm { imm, .. } => Some(*imm),
        LirInsn::MovReg { src, .. } => {
            eval_consumer(lir, *src, i, nzcv_off, nzcv_val, roots, depth + 1)
        }
        LirInsn::MovZx { src, size, .. } => {
            let x = eval_consumer(lir, *src, i, nzcv_off, nzcv_val, roots, depth + 1)?;
            Some(x & size.mask())
        }
        LirInsn::Alu { op, dst, src } => {
            let a = eval_consumer(lir, *dst, i, nzcv_off, nzcv_val, roots, depth + 1)?;
            let b = match src {
                LirOperand::Imm(imm) => *imm,
                LirOperand::Vreg(u) => {
                    eval_consumer(lir, *u, i, nzcv_off, nzcv_val, roots, depth + 1)?
                }
            };
            apply_alu(*op, a, b)
        }
        _ => None,
    }
}

/// Classifies the branch condition value `cv` (read at `t`) as a guest
/// condition over the stored NZCV nibble, returning the matched code and the
/// earliest NZCV load the chain is rooted at.
fn classify_consumer(
    lir: &[LirInsn],
    cv: Vreg,
    t: usize,
    nzcv_off: i32,
) -> Option<(GuestCc, usize)> {
    let mut roots = Vec::new();
    let mut table = [false; 16];
    for (nz, holds) in table.iter_mut().enumerate() {
        *holds = eval_consumer(lir, cv, t, nzcv_off, nz as u64, &mut roots, 0)? != 0;
    }
    let root_min = roots.iter().copied().min()?;
    let g = GUEST_CCS
        .into_iter()
        .find(|g| (0..16).all(|nz| guest_holds(*g, nz as u64) == table[nz]))?;
    Some((g, root_min))
}

// ---------------------------------------------------------------------------
// Producer recognition: the stored nibble as a function of its flag leaves
// ---------------------------------------------------------------------------

/// A classified NZCV producer.
enum Producer {
    /// Subtract shape: nibble of `a - b`; `anchor` is the carry compare
    /// (where `a`/`b` were read).
    Sub {
        a: Vreg,
        b: LirOperand,
        anchor: usize,
    },
    /// Logic shape: nibble of `r` with C/V clear; `anchor` is the zero
    /// compare (where `r` was read).
    Logic { r: Vreg, anchor: usize },
}

/// Collects the leaves (SetCc results and shift-by-63 overflow terms) of
/// the expression defining `v`, walking only pure chain shapes.
fn collect_leaves(
    lir: &[LirInsn],
    v: Vreg,
    before: usize,
    out: &mut Vec<usize>,
    depth: u32,
) -> bool {
    if depth > 24 || out.len() > 8 {
        return false;
    }
    let Some(i) = last_def_before(lir, v, before) else {
        return false;
    };
    match &lir[i] {
        LirInsn::SetCc { .. } => {
            if !out.contains(&i) {
                out.push(i);
            }
            true
        }
        LirInsn::Alu {
            op: AluOp::Shr,
            src: LirOperand::Imm(63),
            ..
        } => {
            if !out.contains(&i) {
                out.push(i);
            }
            true
        }
        LirInsn::Alu { op, dst, src } => {
            if apply_alu(*op, 0, 0).is_none() {
                return false;
            }
            let a_ok = collect_leaves(lir, *dst, i, out, depth + 1);
            let b_ok = match src {
                LirOperand::Imm(_) => true,
                LirOperand::Vreg(u) => collect_leaves(lir, *u, i, out, depth + 1),
            };
            a_ok && b_ok
        }
        LirInsn::MovReg { src, .. } => collect_leaves(lir, *src, i, out, depth + 1),
        LirInsn::MovImm { .. } => true,
        _ => false,
    }
}

/// Evaluates `v` just before `before` with the given leaf assignments
/// (keyed by leaf instruction index).
fn eval_with_leaves(
    lir: &[LirInsn],
    v: Vreg,
    before: usize,
    leaves: &[(usize, u64)],
    depth: u32,
) -> Option<u64> {
    if depth > 24 {
        return None;
    }
    let i = last_def_before(lir, v, before)?;
    if let Some((_, val)) = leaves.iter().find(|(idx, _)| *idx == i) {
        return Some(*val);
    }
    match &lir[i] {
        LirInsn::MovImm { imm, .. } => Some(*imm),
        LirInsn::MovReg { src, .. } => eval_with_leaves(lir, *src, i, leaves, depth + 1),
        LirInsn::Alu { op, dst, src } => {
            let a = eval_with_leaves(lir, *dst, i, leaves, depth + 1)?;
            let b = match src {
                LirOperand::Imm(imm) => *imm,
                LirOperand::Vreg(u) => eval_with_leaves(lir, *u, i, leaves, depth + 1)?,
            };
            apply_alu(*op, a, b)
        }
        _ => None,
    }
}

/// Unordered (first-operand, second-operand) pair of a `MovReg`+`Xor` chain
/// defining `x` just before `before`.
fn xor_pair(lir: &[LirInsn], x: Vreg, before: usize) -> Option<(Vreg, LirOperand)> {
    let xi = last_def_before(lir, x, before)?;
    let LirInsn::Alu {
        op: AluOp::Xor,
        dst,
        src,
    } = &lir[xi]
    else {
        return None;
    };
    let mi = last_def_before(lir, *dst, xi)?;
    let LirInsn::MovReg { src: u, .. } = &lir[mi] else {
        return None;
    };
    Some((*u, *src))
}

/// Classifies the stored value `s` (stored at `p`) as one of the two NZCV
/// producer shapes.
fn classify_producer(lir: &[LirInsn], s: Vreg, p: usize) -> Option<Producer> {
    let mut leaves = Vec::new();
    if !collect_leaves(lir, s, p, &mut leaves, 0) {
        return None;
    }
    // Classify each leaf by role.
    let mut c_leaf: Option<(usize, Vreg, LirOperand, usize)> = None; // (leaf, a, b, cmp idx)
    let mut z_leaf: Option<(usize, Vreg, usize)> = None;
    let mut n_leaf: Option<(usize, Vreg, usize)> = None;
    let mut v_leaf: Option<usize> = None;
    for &li in &leaves {
        match &lir[li] {
            LirInsn::SetCc { cond, .. } => {
                // The emitter materialises compares as an adjacent Cmp+SetCc
                // pair; anything else is not a frontend flag leaf.
                if li == 0 {
                    return None;
                }
                let LirInsn::Cmp { a, b } = &lir[li - 1] else {
                    return None;
                };
                match (cond, b) {
                    (Cond::Ge, _) if c_leaf.is_none() => c_leaf = Some((li, *a, *b, li - 1)),
                    (Cond::Eq, LirOperand::Imm(0)) if z_leaf.is_none() => {
                        z_leaf = Some((li, *a, li - 1))
                    }
                    (Cond::SLt, LirOperand::Imm(0)) if n_leaf.is_none() => {
                        n_leaf = Some((li, *a, li - 1))
                    }
                    _ => return None,
                }
            }
            LirInsn::Alu { .. } => {
                if v_leaf.is_some() {
                    return None;
                }
                v_leaf = Some(li);
            }
            _ => return None,
        }
    }
    let (zl, zr, z_cmp) = z_leaf?;
    let (nl, nr, _) = n_leaf?;
    if zr != nr {
        return None;
    }
    let r = zr;
    match (c_leaf, v_leaf) {
        (Some((cl, a, b, c_cmp)), Some(vl)) => {
            // Subtract shape.  Verify the result register really is a - b.
            let ri = last_def_before(lir, r, z_cmp)?;
            let LirInsn::Alu {
                op: AluOp::Sub,
                dst,
                src,
            } = &lir[ri]
            else {
                return None;
            };
            let rm = last_def_before(lir, *dst, ri)?;
            let LirInsn::MovReg { src: r_base, .. } = &lir[rm] else {
                return None;
            };
            if *r_base != a || *src != b {
                return None;
            }
            // Verify the overflow chain: Shr63(And(Xor{a,b}, Xor{a,r})).
            let LirInsn::Alu { dst: v_dst, .. } = &lir[vl] else {
                return None;
            };
            let vm = last_def_before(lir, *v_dst, vl)?;
            let LirInsn::MovReg { src: and_v, .. } = &lir[vm] else {
                return None;
            };
            let ai = last_def_before(lir, *and_v, vm)?;
            let LirInsn::Alu {
                op: AluOp::And,
                dst: and_dst,
                src: and_src,
            } = &lir[ai]
            else {
                return None;
            };
            let am = last_def_before(lir, *and_dst, ai)?;
            let LirInsn::MovReg { src: x1, .. } = &lir[am] else {
                return None;
            };
            let LirOperand::Vreg(x2) = and_src else {
                return None;
            };
            let p1 = xor_pair(lir, *x1, am)?;
            let p2 = xor_pair(lir, *x2, ai)?;
            let ab = (a, b);
            let ar = (a, LirOperand::Vreg(r));
            if !((p1 == ab && p2 == ar) || (p1 == ar && p2 == ab)) {
                return None;
            }
            // Verify the combine packs exactly V | C<<1 | Z<<2 | N<<3.
            for bits in 0u64..16 {
                let assign = [
                    (vl, bits & 1),
                    (cl, (bits >> 1) & 1),
                    (zl, (bits >> 2) & 1),
                    (nl, (bits >> 3) & 1),
                ];
                if eval_with_leaves(lir, s, p, &assign, 0)? != bits {
                    return None;
                }
            }
            Some(Producer::Sub {
                a,
                b,
                anchor: c_cmp,
            })
        }
        (None, None) => {
            // Logic shape: Z and N of r, C and V clear.
            for bits in 0u64..4 {
                let assign = [(zl, bits & 1), (nl, (bits >> 1) & 1)];
                let expect = ((bits & 1) << 2) | (((bits >> 1) & 1) << 3);
                if eval_with_leaves(lir, s, p, &assign, 0)? != expect {
                    return None;
                }
            }
            Some(Producer::Logic { r, anchor: z_cmp })
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Branch fusion
// ---------------------------------------------------------------------------

/// Finds the `Jcc` consuming the flags set at `t`, allowing only
/// flag-transparent instructions between (the emitter's branch shapes put at
/// most a PC write there).
fn find_jcc(lir: &[LirInsn], t: usize) -> Option<usize> {
    for (k, insn) in lir.iter().enumerate().skip(t + 1) {
        match insn {
            LirInsn::Jcc { .. } => return Some(k),
            LirInsn::SetPcImm { .. } | LirInsn::IncPc { .. } | LirInsn::MovImm { .. } => {}
            _ => return None,
        }
    }
    None
}

/// True when the open span `(from, to)` contains a join, call or unit exit
/// that could invalidate a traced value.  `TraceEdge`, `Jcc` and PC updates
/// are transparent.
fn span_has_barrier(lir: &[LirInsn], from: usize, to: usize) -> bool {
    lir[from + 1..to].iter().any(|i| {
        matches!(
            i,
            LirInsn::Label { .. }
                | LirInsn::Jmp { .. }
                | LirInsn::BackEdge { .. }
                | LirInsn::Ret
                | LirInsn::CallHelper { .. }
        )
    })
}

/// Finds the store that produced the NZCV value read by the root load at
/// `root`: the nearest preceding store to the NZCV slot, with nothing in
/// between that could change or alias the slot.
fn find_nzcv_store(lir: &[LirInsn], root: usize, nzcv_off: i32) -> Option<usize> {
    let slot = nzcv_slot(nzcv_off);
    for k in (0..root).rev() {
        if let Some(acc) = lir[k].regfile_store() {
            if acc.overlaps(&slot) {
                // Must be a full-width register store of the slot.
                return match &lir[k] {
                    LirInsn::Store { size, .. } if acc == slot && *size == MemSize::U64 => Some(k),
                    _ => None,
                };
            }
            continue;
        }
        if lir[k].invalidates_regfile_values() || matches!(lir[k], LirInsn::BackEdge { .. }) {
            return None;
        }
    }
    None
}

pub(crate) struct FuseSite {
    t: usize,
    j: usize,
    new_cmp: LirInsn,
    cond: Cond,
    kind: RuleKind,
    /// Instructions the rewrite strands (a `Cmp; SetCc` pair at most).
    delete: [Option<usize>; 2],
}

fn match_cbz(lir: &[LirInsn], cv: Vreg, t: usize, j: usize, jc: Cond) -> Option<FuseSite> {
    let s = last_def_before(lir, cv, t)?;
    let LirInsn::SetCc { cond: hc, .. } = lir[s] else {
        return None;
    };
    if s == 0 {
        return None;
    }
    let LirInsn::Cmp { a, b } = lir[s - 1] else {
        return None;
    };
    if !same_reaching_def(lir, a, s - 1, t) || !operand_stable(lir, b, s - 1, t) {
        return None;
    }
    if span_has_barrier(lir, s - 1, t) {
        return None;
    }
    // Delete the materialisation when the boolean has no other consumer
    // (Test reads cv twice), and the original compare when its flags feed
    // nothing else before the next flag write.
    let mut delete = [None; 2];
    let mut cv_uses = 0usize;
    for insn in lir {
        insn.visit_uses(|u| cv_uses += (u == cv) as usize);
    }
    if cv_uses == 2 {
        delete[0] = Some(s);
        let mut cmp_free = true;
        for insn in &lir[s + 1..] {
            if insn.reads_host_flags() {
                cmp_free = false;
                break;
            }
            if insn.writes_host_flags() {
                break;
            }
        }
        if cmp_free {
            delete[1] = Some(s - 1);
        }
    }
    let host = if jc == Cond::Ne { hc } else { hc.invert() };
    Some(FuseSite {
        t,
        j,
        new_cmp: LirInsn::Cmp { a, b },
        cond: host,
        kind: RuleKind::FuseCbz,
        delete,
    })
}

fn match_nzcv(
    lir: &[LirInsn],
    cv: Vreg,
    t: usize,
    j: usize,
    jc: Cond,
    nzcv_off: i32,
) -> Option<FuseSite> {
    let (g, root_min) = classify_consumer(lir, cv, t, nzcv_off)?;
    let p = find_nzcv_store(lir, root_min, nzcv_off)?;
    let LirInsn::Store { src: s, .. } = lir[p] else {
        return None;
    };
    let producer = classify_producer(lir, s, p)?;
    match producer {
        Producer::Sub { a, b, anchor } => {
            if span_has_barrier(lir, anchor, t) {
                return None;
            }
            if !same_reaching_def(lir, a, anchor, t) || !operand_stable(lir, b, anchor, t) {
                return None;
            }
            let host = host_for_sub(g);
            let cond = if jc == Cond::Ne { host } else { host.invert() };
            Some(FuseSite {
                t,
                j,
                new_cmp: LirInsn::Cmp { a, b },
                cond,
                kind: RuleKind::FuseCmpBr,
                delete: [None; 2],
            })
        }
        Producer::Logic { r, anchor } => {
            if span_has_barrier(lir, anchor, t) {
                return None;
            }
            if !same_reaching_def(lir, r, anchor, t) {
                return None;
            }
            let host = host_for_logic(g)?;
            let cond = if jc == Cond::Ne { host } else { host.invert() };
            Some(FuseSite {
                t,
                j,
                new_cmp: LirInsn::Test {
                    a: r,
                    b: LirOperand::Vreg(r),
                },
                cond,
                kind: RuleKind::FuseTstBr,
                delete: [None; 2],
            })
        }
    }
}

/// The compare+branch fusion pass: rewrites `Test cv,cv; Jcc` pairs whose
/// condition value derives from a recognised flag producer into a direct
/// host compare-and-branch, when the host flags are dead after the branch.
pub(crate) fn fuse_branches(
    s: &mut OptScratch,
    lir: &mut Vec<LirInsn>,
    table: &RuleTable,
    stats: &mut IdiomStats,
) {
    // The whole-unit fixpoint, computed for the first site whose tail does
    // not settle the question on its own (the scan below only collects
    // sites, so `lir` is still unmodified then).
    let mut flags_live: Option<Vec<bool>> = None;
    let sites = &mut s.fuse_sites;
    sites.clear();
    for t in 0..lir.len() {
        let LirInsn::Test {
            a: cv,
            b: LirOperand::Vreg(cv2),
        } = lir[t]
        else {
            continue;
        };
        if cv != cv2 {
            continue;
        }
        let Some(j) = find_jcc(lir, t) else {
            continue;
        };
        let LirInsn::Jcc { cond: jc, .. } = lir[j] else {
            unreachable!()
        };
        if !matches!(jc, Cond::Eq | Cond::Ne) {
            continue;
        }
        // Soundness gate: the flags the fused compare would set must be
        // provably dead after the branch.
        let live_after_branch = host_flags_live_after_at(lir, j)
            .unwrap_or_else(|| flags_live.get_or_insert_with(|| host_flags_live_after(lir))[j]);
        if live_after_branch {
            continue;
        }
        let site =
            match_cbz(lir, cv, t, j, jc).or_else(|| match_nzcv(lir, cv, t, j, jc, table.nzcv_off));
        sites.extend(site);
    }
    let mut stranded = false;
    for site in sites.iter() {
        stats.fused[site.kind.index()] += 1;
        lir[site.t] = site.new_cmp;
        if let LirInsn::Jcc { cond, .. } = &mut lir[site.j] {
            *cond = site.cond;
        }
        for d in site.delete.into_iter().flatten() {
            if !stranded {
                crate::refill(&mut s.marks, lir.len(), false);
                stranded = true;
            }
            s.marks[d] = true;
        }
    }
    if stranded {
        crate::opt::remove_marked(lir, &s.marks);
    }
}

// ---------------------------------------------------------------------------
// Address-mode folding
// ---------------------------------------------------------------------------

fn mem_of(insn: &LirInsn) -> Option<LirMem> {
    match insn {
        LirInsn::Load { addr, .. }
        | LirInsn::LoadSx { addr, .. }
        | LirInsn::Store { addr, .. }
        | LirInsn::StoreImm { addr, .. }
        | LirInsn::LoadXmm { addr, .. }
        | LirInsn::StoreXmm { addr, .. } => Some(*addr),
        _ => None,
    }
}

fn set_mem(insn: &mut LirInsn, new: LirMem) {
    match insn {
        LirInsn::Load { addr, .. }
        | LirInsn::LoadSx { addr, .. }
        | LirInsn::Store { addr, .. }
        | LirInsn::StoreImm { addr, .. }
        | LirInsn::LoadXmm { addr, .. }
        | LirInsn::StoreXmm { addr, .. } => *addr = new,
        _ => unreachable!(),
    }
}

/// Where every virtual register was last defined, kept as the address-mode
/// folding pass walks forward — what a backward scan from the cursor would
/// find, in one indexed read: `last[v]`, the index of `v`'s latest
/// definition below the cursor, and `prev[i]`, the index of the definition
/// that instruction `i`'s own replaced.
#[derive(Default)]
pub(crate) struct DefTable {
    /// By [`DefTable::key`]; `NO_DEF` for a register not defined yet.
    last: Vec<u32>,
    /// By instruction index; `NO_DEF` for a first (or no) definition.
    prev: Vec<u32>,
    /// Table reads so far: the pass must stay linear in the unit's length.
    #[cfg(test)]
    pub(crate) reads: std::cell::Cell<usize>,
}

const NO_DEF: u32 = u32::MAX;

impl DefTable {
    /// Forgets everything, ready for a unit of `len` instructions.
    pub(crate) fn reset(&mut self, len: usize) {
        crate::refill(&mut self.last, 2 * len, NO_DEF);
        crate::refill(&mut self.prev, len, NO_DEF);
    }

    /// Ids are dense per class, not across classes.
    fn key(v: Vreg) -> usize {
        (v.id as usize) << 1 | (v.class == VregClass::Xmm) as usize
    }

    fn read(&self, table: &[u32], at: usize) -> Option<usize> {
        #[cfg(test)]
        self.reads.set(self.reads.get() + 1);
        table.get(at).filter(|&&d| d != NO_DEF).map(|&d| d as usize)
    }

    /// Index of `v`'s latest definition below the cursor.
    fn last_def(&self, v: Vreg) -> Option<usize> {
        self.read(&self.last, Self::key(v))
    }

    /// True when `v`'s value at the cursor is the one it had just before
    /// instruction `at`: it is defined, and not redefined since.
    fn stable_since(&self, v: Vreg, at: usize) -> bool {
        self.last_def(v).is_some_and(|d| d < at)
    }

    /// Matches `y = i << k` (`k <= 3`), for a `y` not redefined since its
    /// use in the address add, with `i` still holding its pre-shift value
    /// at the cursor.  Returns the pre-shift register and the x86 scale.
    fn shift_chain(&self, lir: &[LirInsn], y: Vreg) -> Option<(Vreg, u8)> {
        let sd = self.last_def(y)?;
        let LirInsn::Alu {
            op: AluOp::Shl,
            src: LirOperand::Imm(k),
            ..
        } = &lir[sd]
        else {
            return None;
        };
        if *k > 3 {
            return None;
        }
        let LirInsn::MovReg { src: i0, .. } = &lir[self.read(&self.prev, sd)?] else {
            return None;
        };
        if i0.class != VregClass::Gpr || !self.stable_since(*i0, sd) {
            return None;
        }
        Some((*i0, 1u8 << *k))
    }

    /// The scaled-index operand instruction `at`'s memory operand folds to,
    /// if its base was computed as `x + y` (optionally `y = i << k`).
    fn folded(&self, lir: &[LirInsn], at: usize) -> Option<LirMem> {
        let addr = mem_of(&lir[at])?;
        let (LirBase::Vreg(t), None) = (addr.base, addr.index) else {
            return None;
        };
        let d = self.last_def(t)?;
        let LirInsn::Alu {
            op: AluOp::Add,
            src: LirOperand::Vreg(y),
            ..
        } = lir[d]
        else {
            return None;
        };
        let LirInsn::MovReg { src: x, .. } = lir[self.read(&self.prev, d)?] else {
            return None;
        };
        if x.class != VregClass::Gpr || y.class != VregClass::Gpr {
            return None;
        }
        // Both summands must still hold their add-time values at the access.
        if !self.stable_since(x, d) || !self.stable_since(y, d) {
            return None;
        }
        let (base, index) = if let Some(scaled) = self.shift_chain(lir, y) {
            (x, scaled)
        } else if let Some(scaled) = self.shift_chain(lir, x) {
            (y, scaled)
        } else {
            (x, (y, 1))
        };
        Some(LirMem {
            base: LirBase::Vreg(base),
            index: Some(index),
            disp: addr.disp,
        })
    }

    /// Address-mode folding, one instruction: folds the memory operand of
    /// `lir[at]` if it has one that qualifies, then records `def`, what
    /// `lir[at]` defines.  Reads the tables and instructions below `at`
    /// only.
    pub(crate) fn step(
        &mut self,
        lir: &mut [LirInsn],
        at: usize,
        def: Option<Vreg>,
        stats: &mut IdiomStats,
    ) {
        if let Some(folded) = self.folded(lir, at) {
            set_mem(&mut lir[at], folded);
            stats.fused[RuleKind::AddrFold.index()] += 1;
        }
        if let Some(d) = def {
            let key = Self::key(d);
            if key >= self.last.len() {
                self.last.resize(key + 1, NO_DEF);
            }
            self.prev[at] = std::mem::replace(&mut self.last[key], at as u32);
        }
    }
}

/// The address-mode folding pass: memory operands whose base was computed
/// as `x + y` (optionally `y = i << k`) become scaled-index operands.  Runs
/// after store-to-load forwarding and copy propagation so address values
/// that round-tripped through the register file (the `lsl`+`ldr_reg` guest
/// idiom) are visible as register chains.  ([`crate::opt::optimize`] runs
/// the same `DefTable::step` inside its forward walk.)  Folding reads no
/// guest layout, so `_table` only keeps the signature [`apply_early`]'s.
pub fn fold_addressing(lir: &mut [LirInsn], _table: &RuleTable, stats: &mut IdiomStats) {
    crate::with_scratch(|s| {
        let defs = &mut s.opt.defs;
        defs.reset(lir.len());
        for at in 0..lir.len() {
            defs.step(lir, at, lir[at].def(), stats);
        }
    })
}

/// Runs the pre-optimisation idiom pass, branch fusion, on raw LIR.
/// [`fold_addressing`] runs separately, after forwarding and copy
/// propagation have connected regfile round-trips.
pub fn apply_early(lir: &mut Vec<LirInsn>, table: &RuleTable, stats: &mut IdiomStats) {
    crate::with_scratch(|s| fuse_branches(&mut s.opt, lir, table, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(id: u32) -> Vreg {
        Vreg {
            id,
            class: VregClass::Gpr,
        }
    }

    fn movi(dst: u32, imm: u64) -> LirInsn {
        LirInsn::MovImm { dst: v(dst), imm }
    }

    fn cmp(a: u32, b: u32) -> LirInsn {
        LirInsn::Cmp {
            a: v(a),
            b: LirOperand::Vreg(v(b)),
        }
    }

    fn test_self(cv: u32) -> LirInsn {
        LirInsn::Test {
            a: v(cv),
            b: LirOperand::Vreg(v(cv)),
        }
    }

    fn setcc(cond: Cond, dst: u32) -> LirInsn {
        LirInsn::SetCc { cond, dst: v(dst) }
    }

    fn jcc(cond: Cond) -> LirInsn {
        LirInsn::Jcc { cond, label: 1 }
    }

    fn fuse(lir: &mut Vec<LirInsn>) -> IdiomStats {
        let mut stats = IdiomStats::default();
        fuse_branches(
            &mut OptScratch::default(),
            lir,
            RuleTable::builtin(),
            &mut stats,
        );
        stats
    }

    // A CBZ-shaped site: materialised compare re-tested by the branch.
    fn cbz_site(jc: Cond) -> Vec<LirInsn> {
        vec![
            movi(0, 7),
            movi(1, 9),
            cmp(0, 1),
            setcc(Cond::Eq, 2),
            test_self(2),
            jcc(jc),
            LirInsn::Ret,
        ]
    }

    #[test]
    fn cbz_site_fuses_to_direct_compare() {
        let mut lir = cbz_site(Cond::Ne);
        let stats = fuse(&mut lir);
        assert_eq!(stats.fused[RuleKind::FuseCbz.index()], 1);
        // SetCc and the original Cmp die with the fusion; the re-test is
        // rewritten into the compare and the branch takes the host cond
        // directly (CBNZ on an Eq boolean == branch-if-equal).
        assert_eq!(lir.len(), 5);
        assert!(lir
            .iter()
            .all(|i| !matches!(i, LirInsn::SetCc { .. } | LirInsn::Test { .. })));
        assert!(matches!(
            lir[2],
            LirInsn::Cmp {
                a,
                b: LirOperand::Vreg(b),
            } if a == v(0) && b == v(1)
        ));
        assert!(matches!(lir[3], LirInsn::Jcc { cond: Cond::Eq, .. }));
    }

    #[test]
    fn inverted_branch_polarity_inverts_host_cond() {
        // CBZ on an Eq boolean branches when the compare did NOT hold.
        let mut lir = cbz_site(Cond::Eq);
        let stats = fuse(&mut lir);
        assert_eq!(stats.fused[RuleKind::FuseCbz.index()], 1);
        assert!(matches!(lir[3], LirInsn::Jcc { cond: Cond::Ne, .. }));
    }

    #[test]
    fn flag_reader_after_branch_refuses_fusion() {
        // A SetCc past the branch still wants the *old* host flags; fusing
        // would clobber them with the re-issued compare's.  This gate is
        // only constructible at the LIR level — guest frontends never emit
        // it — which is exactly why it needs a synthetic test.
        let mut lir = cbz_site(Cond::Ne);
        let ret = lir.pop().unwrap();
        lir.push(setcc(Cond::Lt, 5));
        lir.push(LirInsn::Store {
            src: v(5),
            addr: LirMem::regfile(0),
            size: hvm::MemSize::U64,
        });
        lir.push(ret);
        let len = lir.len();
        let stats = fuse(&mut lir);
        assert_eq!(
            stats,
            IdiomStats::default(),
            "live flags must gate the site"
        );
        assert_eq!(lir.len(), len);
    }

    #[test]
    fn join_in_traced_span_refuses_fusion() {
        // A Label between the compare and the re-test could let another
        // path supply a different boolean; the span check refuses it.
        let mut lir = cbz_site(Cond::Ne);
        lir.insert(4, LirInsn::Label { id: 9 });
        let stats = fuse(&mut lir);
        assert_eq!(stats, IdiomStats::default());
    }

    #[test]
    fn redefined_operand_refuses_fusion() {
        // v0 is clobbered between the compare and the branch, so re-issuing
        // `Cmp v0, v1` at the branch would compare the wrong value.
        let mut lir = cbz_site(Cond::Ne);
        lir.insert(4, movi(0, 1234));
        let stats = fuse(&mut lir);
        assert_eq!(stats, IdiomStats::default());
    }

    /// Address-mode folding as it was before the definition tables: every
    /// question answered by scanning back from the access.  The reference
    /// [`DefTable::folded`] is held to.
    fn folded_by_back_scan(lir: &[LirInsn], i: usize) -> Option<LirMem> {
        let shift_chain = |y: Vreg, before: usize| {
            let sd = last_def_before(lir, y, before)?;
            let LirInsn::Alu {
                op: AluOp::Shl,
                dst,
                src: LirOperand::Imm(k),
            } = lir[sd]
            else {
                return None;
            };
            let LirInsn::MovReg { src: i0, .. } = lir[last_def_before(lir, dst, sd)?] else {
                return None;
            };
            (k <= 3 && i0.class == VregClass::Gpr && same_reaching_def(lir, i0, sd, i))
                .then_some((i0, 1u8 << k))
        };
        let addr = mem_of(&lir[i])?;
        let (LirBase::Vreg(t), None) = (addr.base, addr.index) else {
            return None;
        };
        let d = last_def_before(lir, t, i)?;
        let LirInsn::Alu {
            op: AluOp::Add,
            dst,
            src: LirOperand::Vreg(y),
        } = lir[d]
        else {
            return None;
        };
        let LirInsn::MovReg { src: x, .. } = lir[last_def_before(lir, dst, d)?] else {
            return None;
        };
        if x.class != VregClass::Gpr || y.class != VregClass::Gpr {
            return None;
        }
        if !same_reaching_def(lir, x, d, i) || !same_reaching_def(lir, y, d, i) {
            return None;
        }
        let (base, index) = if let Some(scaled) = shift_chain(y, d) {
            (x, scaled)
        } else if let Some(scaled) = shift_chain(x, d) {
            (y, scaled)
        } else {
            (x, (y, 1))
        };
        Some(LirMem {
            base: LirBase::Vreg(base),
            index: Some(index),
            disp: addr.disp,
        })
    }

    #[test]
    fn folding_a_long_unit_is_linear_and_agrees_with_the_back_scan() {
        // 4 000 instructions of address chains — plain, scaled through
        // either summand, and broken by a redefinition between the add and
        // the access — over a small pool of registers, so definitions are
        // reused and a scan back from an access would have far to go.
        let reg = |k: u32| v(k % 40);
        let load = |dst, addr| LirInsn::Load {
            dst,
            addr,
            size: hvm::MemSize::U64,
        };
        let mut lir = Vec::new();
        let mut k = 0u32;
        while lir.len() < 4_000 {
            k += 7;
            let (x, y, t, i0, r) = (reg(k), reg(k + 1), reg(k + 2), reg(k + 3), reg(k + 4));
            lir.push(load(x, LirMem::regfile(8 * (k % 31) as i32)));
            lir.push(load(i0, LirMem::regfile(8 * (k % 29) as i32)));
            lir.push(LirInsn::MovReg { dst: y, src: i0 });
            if !k.is_multiple_of(3) {
                lir.push(LirInsn::Alu {
                    op: AluOp::Shl,
                    dst: y,
                    src: LirOperand::Imm((k % 5) as u64),
                });
            }
            let (first, second) = if k.is_multiple_of(2) { (x, y) } else { (y, x) };
            lir.push(LirInsn::MovReg { dst: t, src: first });
            lir.push(LirInsn::Alu {
                op: AluOp::Add,
                dst: t,
                src: LirOperand::Vreg(second),
            });
            if k.is_multiple_of(11) {
                lir.push(movi(first.id, 1)); // the summand no longer holds its add-time value
            }
            if k.is_multiple_of(13) {
                lir.push(movi(i0.id, 2)); // nor the pre-shift index
            }
            lir.push(load(r, LirMem::vreg(t, 16)));
        }
        let n = lir.len();
        let expected: Vec<Option<LirMem>> = (0..n).map(|i| folded_by_back_scan(&lir, i)).collect();
        let mut defs = DefTable::default();
        defs.reset(n);
        let mut stats = IdiomStats::default();
        let before = lir.clone();
        for at in 0..n {
            assert_eq!(
                defs.folded(&lir, at),
                expected[at],
                "at {at}: {:?}",
                lir[at]
            );
            let def = lir[at].def();
            defs.step(&mut lir, at, def, &mut stats);
        }
        let folds = expected.iter().flatten().count();
        assert_eq!(stats.fused[RuleKind::AddrFold.index()] as usize, folds);
        let accesses = before.iter().filter(|i| i.may_fault()).count();
        assert!(
            folds > 300 && accesses - folds > 50,
            "{folds} of {accesses} accesses fold"
        );
        let scaled = expected
            .iter()
            .flatten()
            .filter(|m| m.index.is_some_and(|(_, scale)| scale > 1))
            .count();
        assert!(scaled > 100, "{scaled} scaled-index folds");
        for (at, (was, is)) in before.iter().zip(&lir).enumerate() {
            let rewritten = expected[at].map_or(*was, |m| load(was.def().unwrap(), m));
            assert_eq!(*is, rewritten, "at {at}");
        }
        // At most ten reads per instruction (a fold that tries both shift
        // chains), whatever the distance to the definitions.
        assert!(defs.reads.get() <= 10 * n, "{} reads", defs.reads.get());
    }
}
