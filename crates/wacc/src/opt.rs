//! AST-level optimization: the compiler's `-O0`..`-O3` levels.
//!
//! | level | passes |
//! |---|---|
//! | `O0` | none |
//! | `O1` | constant folding, algebraic simplification, dead-branch elimination |
//! | `O2` | `O1` + single-expression function inlining + loop-invariant hoisting |
//! | `O3` | `O2` + full unrolling of small constant-trip `for` loops |
//!
//! These drive the paper's Figure 4 experiment: the same source compiled
//! at different levels produces measurably different Wasm.

use std::collections::{HashMap, HashSet};

use crate::ast::*;
use crate::check::FuncSig;

/// An optimization level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OptLevel {
    /// No optimization.
    O0,
    /// Folding and simplification.
    O1,
    /// Plus inlining and loop-invariant code motion.
    O2,
    /// Plus loop unrolling.
    O3,
}

impl OptLevel {
    /// All levels in ascending order.
    pub fn all() -> [OptLevel; 4] {
        [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3]
    }

    /// Parses a command-line spelling: `O0`..`O3`, with or without the
    /// leading `-` that [`Display`](std::fmt::Display) prints.
    pub fn parse(s: &str) -> Option<OptLevel> {
        let s = s.strip_prefix('-').unwrap_or(s);
        OptLevel::all().into_iter().find(|l| l.to_string()[1..] == *s)
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OptLevel::O0 => "-O0",
            OptLevel::O1 => "-O1",
            OptLevel::O2 => "-O2",
            OptLevel::O3 => "-O3",
        };
        f.write_str(s)
    }
}

/// Optimizes a checked program in place.
pub fn optimize(program: &mut Program, sigs: &HashMap<String, FuncSig>, level: OptLevel) {
    if level == OptLevel::O0 {
        return;
    }
    let _span = obs::span!("wacc.opt", level = level);
    // O1: folding + simplification + dead branches (iterated).
    {
        let _s = obs::span!("wacc.pass", name = "fold");
        for _ in 0..2 {
            for f in &mut program.funcs {
                fold_block(&mut f.body);
            }
        }
    }
    if level >= OptLevel::O2 {
        {
            let _s = obs::span!("wacc.pass", name = "inline");
            inline_small_functions(program, sigs);
        }
        {
            let _s = obs::span!("wacc.pass", name = "hoist");
            let mut func_locals: Vec<(u32, Vec<Ty>)> = Vec::new();
            for f in &mut program.funcs {
                let mut locals = f.local_types.clone();
                hoist_block(&mut f.body, &mut locals);
                func_locals.push((locals.len() as u32, locals));
            }
            for (f, (n, l)) in program.funcs.iter_mut().zip(func_locals) {
                f.nlocals = n;
                f.local_types = l;
            }
        }
        let _s = obs::span!("wacc.pass", name = "fold");
        for f in &mut program.funcs {
            fold_block(&mut f.body);
        }
    }
    if level >= OptLevel::O3 {
        let _s = obs::span!("wacc.pass", name = "unroll");
        for f in &mut program.funcs {
            unroll_block(&mut f.body);
            fold_block(&mut f.body);
        }
    }
}

// ---------------------------------------------------------------- folding

fn fold_block(stmts: &mut Vec<Stmt>) {
    for s in stmts.iter_mut() {
        fold_stmt(s);
    }
    // Dead-branch elimination may leave empty nested blocks; flatten them.
    stmts.retain(|s| !matches!(s, Stmt::Block(b) if b.is_empty()));
}

fn fold_stmt(s: &mut Stmt) {
    match s {
        Stmt::Let { init, .. } => fold_expr(init),
        Stmt::Assign { value, .. } => fold_expr(value),
        Stmt::Expr(e) => fold_expr(e),
        Stmt::If { cond, then, els } => {
            fold_expr(cond);
            fold_block(then);
            fold_block(els);
            if let ExprKind::Lit(Lit::I32(c)) = cond.kind {
                let live_arm = if c != 0 {
                    std::mem::take(then)
                } else {
                    std::mem::take(els)
                };
                *s = Stmt::Block(live_arm);
            }
        }
        Stmt::While { cond, body } => {
            fold_expr(cond);
            fold_block(body);
            if let ExprKind::Lit(Lit::I32(0)) = cond.kind {
                *s = Stmt::Block(Vec::new());
            }
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            fold_stmt(init);
            fold_expr(cond);
            fold_stmt(step);
            fold_block(body);
        }
        Stmt::Return(Some(e), _) => fold_expr(e),
        Stmt::Block(b) => fold_block(b),
        _ => {}
    }
}

fn lit_i64(e: &Expr) -> Option<i64> {
    match e.kind {
        ExprKind::Lit(Lit::I32(v)) => Some(v as i64),
        ExprKind::Lit(Lit::I64(v)) => Some(v),
        _ => None,
    }
}

/// Whether evaluating the expression twice (or zero times) is observable.
fn is_pure(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Lit(_) | ExprKind::Local(_) | ExprKind::Global(_) | ExprKind::Str(_) => true,
        ExprKind::Bin(op, a, b) => {
            // Integer division can trap; treat as impure for deletion.
            !(matches!(op, BinOp::Div | BinOp::Rem) && a.ty.is_int())
                && is_pure(a)
                && is_pure(b)
        }
        ExprKind::Un(_, a) => is_pure(a),
        ExprKind::Cast(a, to) => {
            // Float→int casts can trap.
            !(a.ty == Ty::F32 || a.ty == Ty::F64) || !to.is_int() && is_pure(a) || is_pure(a) && !to.is_int()
        }
        ExprKind::Call(..) => false,
        ExprKind::Builtin(b, args) => {
            use Builtin::*;
            matches!(
                b,
                DivU | RemU // trap on zero — not pure for deletion
            )
            .then_some(false)
            .unwrap_or(
                matches!(
                    b,
                    LtU | GtU | LeU | GeU | Clz | Ctz | Popcnt | Rotl | Rotr | Sqrt | Abs
                        | Floor | Ceil | TruncF | Nearest | FMin | FMax | Copysign
                ) && args.iter().all(is_pure),
            )
        }
        ExprKind::Name(_) => false,
    }
}

fn fold_expr(e: &mut Expr) {
    match &mut e.kind {
        ExprKind::Bin(op, a, b) => {
            fold_expr(a);
            fold_expr(b);
            let op = *op;
            if let Some(folded) = fold_bin(op, a, b, e.ty) {
                e.kind = folded;
                return;
            }
            if let Some(simplified) = simplify_bin(op, a, b) {
                *e = simplified;
            }
        }
        ExprKind::Un(op, a) => {
            fold_expr(a);
            if let (UnOp::Neg, ExprKind::Lit(l)) = (*op, &a.kind) {
                let folded = match *l {
                    Lit::I32(v) => Lit::I32(v.wrapping_neg()),
                    Lit::I64(v) => Lit::I64(v.wrapping_neg()),
                    Lit::F32(v) => Lit::F32(-v),
                    Lit::F64(v) => Lit::F64(-v),
                };
                e.kind = ExprKind::Lit(folded);
            } else if let (UnOp::Not, ExprKind::Lit(Lit::I32(v))) = (*op, &a.kind) {
                e.kind = ExprKind::Lit(Lit::I32((*v == 0) as i32));
            }
        }
        ExprKind::Cast(a, to) => {
            fold_expr(a);
            let to = *to;
            if let ExprKind::Lit(l) = &a.kind {
                let folded = match (*l, to) {
                    (Lit::I32(v), Ty::I64) => Some(Lit::I64(v as i64)),
                    (Lit::I32(v), Ty::F32) => Some(Lit::F32(v as f32)),
                    (Lit::I32(v), Ty::F64) => Some(Lit::F64(v as f64)),
                    (Lit::I64(v), Ty::I32) => Some(Lit::I32(v as i32)),
                    (Lit::I64(v), Ty::F64) => Some(Lit::F64(v as f64)),
                    (Lit::F64(v), Ty::F32) => Some(Lit::F32(v as f32)),
                    (Lit::F32(v), Ty::F64) => Some(Lit::F64(v as f64)),
                    (l, t) if l.ty() == t => Some(l),
                    _ => None,
                };
                if let Some(l) = folded {
                    e.kind = ExprKind::Lit(l);
                }
            } else if a.ty == to {
                let inner = std::mem::replace(
                    a.as_mut(),
                    Expr::new(ExprKind::Lit(Lit::I32(0)), 0),
                );
                *e = inner;
            }
        }
        ExprKind::Call(_, args) | ExprKind::Builtin(_, args) => {
            for a in args.iter_mut() {
                fold_expr(a);
            }
        }
        _ => {}
    }
}

fn fold_bin(op: BinOp, a: &Expr, b: &Expr, _ty: Ty) -> Option<ExprKind> {
    use BinOp::*;
    // Integer folding.
    if let (ExprKind::Lit(la), ExprKind::Lit(lb)) = (&a.kind, &b.kind) {
        match (la, lb) {
            (Lit::I32(x), Lit::I32(y)) => {
                let (x, y) = (*x, *y);
                let v: Option<i32> = match op {
                    Add => Some(x.wrapping_add(y)),
                    Sub => Some(x.wrapping_sub(y)),
                    Mul => Some(x.wrapping_mul(y)),
                    Div if y != 0 && !(x == i32::MIN && y == -1) => Some(x.wrapping_div(y)),
                    Rem if y != 0 => Some(x.wrapping_rem(y)),
                    And => Some(x & y),
                    Or => Some(x | y),
                    Xor => Some(x ^ y),
                    Shl => Some(x.wrapping_shl(y as u32)),
                    Shr => Some(x.wrapping_shr(y as u32)),
                    ShrU => Some(((x as u32).wrapping_shr(y as u32)) as i32),
                    Lt => Some((x < y) as i32),
                    Le => Some((x <= y) as i32),
                    Gt => Some((x > y) as i32),
                    Ge => Some((x >= y) as i32),
                    Eq => Some((x == y) as i32),
                    Ne => Some((x != y) as i32),
                    AndAnd => Some((x != 0 && y != 0) as i32),
                    OrOr => Some((x != 0 || y != 0) as i32),
                    _ => None,
                };
                return v.map(|v| ExprKind::Lit(Lit::I32(v)));
            }
            (Lit::I64(x), Lit::I64(y)) => {
                let (x, y) = (*x, *y);
                let v: Option<Lit> = match op {
                    Add => Some(Lit::I64(x.wrapping_add(y))),
                    Sub => Some(Lit::I64(x.wrapping_sub(y))),
                    Mul => Some(Lit::I64(x.wrapping_mul(y))),
                    Div if y != 0 && !(x == i64::MIN && y == -1) => {
                        Some(Lit::I64(x.wrapping_div(y)))
                    }
                    Rem if y != 0 => Some(Lit::I64(x.wrapping_rem(y))),
                    And => Some(Lit::I64(x & y)),
                    Or => Some(Lit::I64(x | y)),
                    Xor => Some(Lit::I64(x ^ y)),
                    Shl => Some(Lit::I64(x.wrapping_shl(y as u32))),
                    Shr => Some(Lit::I64(x.wrapping_shr(y as u32))),
                    ShrU => Some(Lit::I64(((x as u64).wrapping_shr(y as u32)) as i64)),
                    Lt => Some(Lit::I32((x < y) as i32)),
                    Le => Some(Lit::I32((x <= y) as i32)),
                    Gt => Some(Lit::I32((x > y) as i32)),
                    Ge => Some(Lit::I32((x >= y) as i32)),
                    Eq => Some(Lit::I32((x == y) as i32)),
                    Ne => Some(Lit::I32((x != y) as i32)),
                    _ => None,
                };
                return v.map(ExprKind::Lit);
            }
            (Lit::F64(x), Lit::F64(y)) => {
                let (x, y) = (*x, *y);
                let v: Option<Lit> = match op {
                    Add => Some(Lit::F64(x + y)),
                    Sub => Some(Lit::F64(x - y)),
                    Mul => Some(Lit::F64(x * y)),
                    Div => Some(Lit::F64(x / y)),
                    Lt => Some(Lit::I32((x < y) as i32)),
                    Le => Some(Lit::I32((x <= y) as i32)),
                    Gt => Some(Lit::I32((x > y) as i32)),
                    Ge => Some(Lit::I32((x >= y) as i32)),
                    Eq => Some(Lit::I32((x == y) as i32)),
                    Ne => Some(Lit::I32((x != y) as i32)),
                    _ => None,
                };
                return v.map(ExprKind::Lit);
            }
            _ => {}
        }
    }
    None
}

/// Algebraic identities: `x+0`, `x*1`, `x*0` (pure x), `x-0`, `x/1`,
/// `x<<0`, `x*2^k → x<<k`.
fn simplify_bin(op: BinOp, a: &mut Expr, b: &mut Expr) -> Option<Expr> {
    use BinOp::*;
    let bv = lit_i64(b);
    let take = |e: &mut Expr| std::mem::replace(e, Expr::new(ExprKind::Lit(Lit::I32(0)), 0));
    match (op, bv) {
        (Add | Sub | Or | Xor | Shl | Shr | ShrU, Some(0)) if a.ty.is_int() => Some(take(a)),
        (Mul | Div, Some(1)) if a.ty.is_int() => Some(take(a)),
        (Mul, Some(0)) if a.ty.is_int() && is_pure(a) => Some(take(b)),
        (Mul, Some(k)) if a.ty.is_int() && k > 1 && (k as u64).is_power_of_two() => {
            let shift = k.trailing_zeros() as i64;
            let ty = a.ty;
            let line = a.line;
            let mut sh = Expr::new(
                ExprKind::Lit(if ty == Ty::I64 {
                    Lit::I64(shift)
                } else {
                    Lit::I32(shift as i32)
                }),
                line,
            );
            sh.ty = ty;
            let mut new = Expr::new(ExprKind::Bin(Shl, Box::new(take(a)), Box::new(sh)), line);
            new.ty = ty;
            Some(new)
        }
        _ => {
            // 0 + x → x  (commutative identities on the left).
            let neutral = (matches!(op, Add) && lit_i64(a) == Some(0))
                || (matches!(op, Mul) && lit_i64(a) == Some(1));
            if neutral && b.ty.is_int() {
                Some(take(b))
            } else {
                None
            }
        }
    }
}

// ---------------------------------------------------------------- inlining

/// Inlines functions whose body is exactly `return <expr>;` when actual
/// arguments are safe to substitute (pure, or the parameter is used at
/// most once).
fn inline_small_functions(program: &mut Program, _sigs: &HashMap<String, FuncSig>) {
    // Collect inline candidates.
    let mut candidates: HashMap<String, (Vec<Ty>, Expr)> = HashMap::new();
    for f in &program.funcs {
        if f.body.len() == 1 && f.nlocals == f.params.len() as u32 {
            if let Stmt::Return(Some(e), _) = &f.body[0] {
                if expr_size(e) <= 12 && !calls_anything(e) {
                    candidates.insert(
                        f.name.clone(),
                        (f.params.iter().map(|(_, t)| *t).collect(), e.clone()),
                    );
                }
            }
        }
    }
    if candidates.is_empty() {
        return;
    }
    for f in &mut program.funcs {
        for s in &mut f.body {
            inline_stmt(s, &candidates);
        }
    }
}

fn expr_size(e: &Expr) -> usize {
    match &e.kind {
        ExprKind::Bin(_, a, b) => 1 + expr_size(a) + expr_size(b),
        ExprKind::Un(_, a) | ExprKind::Cast(a, _) => 1 + expr_size(a),
        ExprKind::Call(_, args) | ExprKind::Builtin(_, args) => {
            1 + args.iter().map(expr_size).sum::<usize>()
        }
        _ => 1,
    }
}

fn calls_anything(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Call(..) => true,
        ExprKind::Bin(_, a, b) => calls_anything(a) || calls_anything(b),
        ExprKind::Un(_, a) | ExprKind::Cast(a, _) => calls_anything(a),
        ExprKind::Builtin(_, args) => args.iter().any(calls_anything),
        _ => false,
    }
}

fn inline_stmt(s: &mut Stmt, candidates: &HashMap<String, (Vec<Ty>, Expr)>) {
    match s {
        Stmt::Let { init, .. } => inline_expr(init, candidates),
        Stmt::Assign { value, .. } => inline_expr(value, candidates),
        Stmt::Expr(e) => inline_expr(e, candidates),
        Stmt::If { cond, then, els } => {
            inline_expr(cond, candidates);
            for s in then.iter_mut().chain(els.iter_mut()) {
                inline_stmt(s, candidates);
            }
        }
        Stmt::While { cond, body } => {
            inline_expr(cond, candidates);
            for s in body {
                inline_stmt(s, candidates);
            }
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            inline_stmt(init, candidates);
            inline_expr(cond, candidates);
            inline_stmt(step, candidates);
            for s in body {
                inline_stmt(s, candidates);
            }
        }
        Stmt::Return(Some(e), _) => inline_expr(e, candidates),
        Stmt::Block(b) => {
            for s in b {
                inline_stmt(s, candidates);
            }
        }
        _ => {}
    }
}

fn inline_expr(e: &mut Expr, candidates: &HashMap<String, (Vec<Ty>, Expr)>) {
    // Recurse first so nested calls inline bottom-up.
    match &mut e.kind {
        ExprKind::Bin(_, a, b) => {
            inline_expr(a, candidates);
            inline_expr(b, candidates);
        }
        ExprKind::Un(_, a) | ExprKind::Cast(a, _) => inline_expr(a, candidates),
        ExprKind::Call(_, args) | ExprKind::Builtin(_, args) => {
            for a in args.iter_mut() {
                inline_expr(a, candidates);
            }
        }
        _ => {}
    }
    if let ExprKind::Call(name, args) = &e.kind {
        if let Some((params, body)) = candidates.get(name) {
            // Safe substitution: every argument pure, or its parameter
            // used at most once.
            let mut counts = vec![0usize; params.len()];
            count_param_uses(body, &mut counts);
            let safe = args
                .iter()
                .zip(&counts)
                .all(|(a, &c)| c <= 1 || is_pure(a));
            if safe {
                let mut new = body.clone();
                substitute_params(&mut new, args);
                new.line = e.line;
                *e = new;
            }
        }
    }
}

fn count_param_uses(e: &Expr, counts: &mut [usize]) {
    match &e.kind {
        ExprKind::Local(i) if (*i as usize) < counts.len() => {
            counts[*i as usize] += 1;
        }
        ExprKind::Bin(_, a, b) => {
            count_param_uses(a, counts);
            count_param_uses(b, counts);
        }
        ExprKind::Un(_, a) | ExprKind::Cast(a, _) => count_param_uses(a, counts),
        ExprKind::Call(_, args) | ExprKind::Builtin(_, args) => {
            for a in args {
                count_param_uses(a, counts);
            }
        }
        _ => {}
    }
}

fn substitute_params(e: &mut Expr, args: &[Expr]) {
    match &mut e.kind {
        ExprKind::Local(i) => {
            let idx = *i as usize;
            if idx < args.len() {
                let ty = e.ty;
                *e = args[idx].clone();
                debug_assert_eq!(e.ty, ty);
            }
        }
        ExprKind::Bin(_, a, b) => {
            substitute_params(a, args);
            substitute_params(b, args);
        }
        ExprKind::Un(_, a) | ExprKind::Cast(a, _) => substitute_params(a, args),
        ExprKind::Call(_, call_args) | ExprKind::Builtin(_, call_args) => {
            for a in call_args.iter_mut() {
                substitute_params(a, args);
            }
        }
        _ => {}
    }
}

// ------------------------------------------------------------------ LICM

/// Hoists loop-invariant pure subexpressions out of `while`/`for` bodies
/// into fresh locals.
fn hoist_block(stmts: &mut Vec<Stmt>, locals: &mut Vec<Ty>) {
    let mut i = 0;
    while i < stmts.len() {
        // Recurse into nested structures first.
        match &mut stmts[i] {
            Stmt::If { then, els, .. } => {
                hoist_block(then, locals);
                hoist_block(els, locals);
            }
            Stmt::Block(b) => hoist_block(b, locals),
            Stmt::While { body, .. } => hoist_block(body, locals),
            Stmt::For { body, .. } => hoist_block(body, locals),
            _ => {}
        }
        let replacement = match &mut stmts[i] {
            Stmt::While { cond, body } => try_hoist_loop(None, cond, None, body, locals),
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => try_hoist_loop(Some(init), cond, Some(step), body, locals),
            _ => None,
        };
        if let Some(mut pre) = replacement {
            let n = pre.len();
            let old = stmts.remove(i);
            pre.push(old);
            for (k, s) in pre.into_iter().enumerate() {
                stmts.insert(i + k, s);
            }
            i += n;
        }
        i += 1;
    }
}

/// Returns prelude statements (hoisted lets) to insert before the loop.
fn try_hoist_loop(
    init: Option<&mut Stmt>,
    cond: &mut Expr,
    step: Option<&mut Stmt>,
    body: &mut [Stmt],
    locals: &mut Vec<Ty>,
) -> Option<Vec<Stmt>> {
    // Variables written anywhere in the loop (cond/step/body).
    let mut written: HashSet<u32> = HashSet::new();
    let mut globals_written = false;
    let mut has_calls = false;
    for s in body.iter() {
        collect_writes(s, &mut written, &mut globals_written, &mut has_calls);
    }
    if let Some(s) = step {
        collect_writes(s, &mut written, &mut globals_written, &mut has_calls);
    }
    if let Some(s) = init {
        collect_writes(s, &mut written, &mut globals_written, &mut has_calls);
    }
    // Any call in the loop may write globals (callees can mutate them),
    // so global reads are only invariant in call-free loops.
    if has_calls {
        globals_written = true;
    }

    let mut hoisted: Vec<Stmt> = Vec::new();
    let mut cache: Vec<(Expr, u32)> = Vec::new();
    for s in body.iter_mut() {
        hoist_in_stmt(s, &written, globals_written, locals, &mut hoisted, &mut cache);
    }
    let _ = cond;
    if hoisted.is_empty() {
        None
    } else {
        Some(hoisted)
    }
}

fn collect_writes(
    s: &Stmt,
    written: &mut HashSet<u32>,
    globals_written: &mut bool,
    has_calls: &mut bool,
) {
    match s {
        Stmt::Let { slot, init, .. } => {
            written.insert(*slot);
            if calls_anything(init) {
                *has_calls = true;
            }
        }
        Stmt::Assign { target, value, .. } => {
            match target {
                AssignTarget::Local(slot) => {
                    written.insert(*slot);
                }
                AssignTarget::Global(_) => *globals_written = true,
                AssignTarget::Unresolved => {}
            }
            if calls_anything(value) {
                *has_calls = true;
            }
        }
        Stmt::Expr(e) if calls_anything(e) || !is_pure(e) => {
            *has_calls = true;
        }
        Stmt::If { then, els, cond } => {
            if calls_anything(cond) {
                *has_calls = true;
            }
            for s in then.iter().chain(els) {
                collect_writes(s, written, globals_written, has_calls);
            }
        }
        Stmt::While { body, cond } => {
            if calls_anything(cond) {
                *has_calls = true;
            }
            for s in body {
                collect_writes(s, written, globals_written, has_calls);
            }
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            collect_writes(init, written, globals_written, has_calls);
            if calls_anything(cond) {
                *has_calls = true;
            }
            collect_writes(step, written, globals_written, has_calls);
            for s in body {
                collect_writes(s, written, globals_written, has_calls);
            }
        }
        Stmt::Return(Some(e), _) if calls_anything(e) => {
            *has_calls = true;
        }
        Stmt::Block(b) => {
            for s in b {
                collect_writes(s, written, globals_written, has_calls);
            }
        }
        _ => {}
    }
}

/// Whether an expression is loop-invariant: pure, and only reads locals
/// outside `written` (and globals only if no global writes).
fn is_invariant(e: &Expr, written: &HashSet<u32>, globals_written: bool) -> bool {
    match &e.kind {
        ExprKind::Lit(_) | ExprKind::Str(_) => true,
        ExprKind::Local(i) => !written.contains(i),
        ExprKind::Global(_) => !globals_written,
        ExprKind::Bin(op, a, b) => {
            (!matches!(op, BinOp::Div | BinOp::Rem) || !a.ty.is_int())
                && is_invariant(a, written, globals_written)
                && is_invariant(b, written, globals_written)
        }
        ExprKind::Un(_, a) => is_invariant(a, written, globals_written),
        ExprKind::Cast(a, to) => {
            (!to.is_int() || a.ty.is_int()) && is_invariant(a, written, globals_written)
        }
        _ => false,
    }
}

fn hoist_in_stmt(
    s: &mut Stmt,
    written: &HashSet<u32>,
    globals_written: bool,
    locals: &mut Vec<Ty>,
    out: &mut Vec<Stmt>,
    cache: &mut Vec<(Expr, u32)>,
) {
    let mut visit = |e: &mut Expr| hoist_in_expr(e, written, globals_written, locals, out, cache);
    match s {
        Stmt::Let { init, .. } => visit(init),
        Stmt::Assign { value, .. } => visit(value),
        Stmt::Expr(e) => visit(e),
        Stmt::If { cond, then, els } => {
            visit(cond);
            for s in then.iter_mut().chain(els.iter_mut()) {
                hoist_in_stmt(s, written, globals_written, locals, out, cache);
            }
        }
        // Nested loops were already processed by the outer walk; hoisting
        // across two levels happens on the second optimize() iteration.
        Stmt::While { .. } | Stmt::For { .. } => {}
        Stmt::Return(Some(e), _) => visit(e),
        Stmt::Block(b) => {
            for s in b {
                hoist_in_stmt(s, written, globals_written, locals, out, cache);
            }
        }
        _ => {}
    }
}

fn hoist_in_expr(
    e: &mut Expr,
    written: &HashSet<u32>,
    globals_written: bool,
    locals: &mut Vec<Ty>,
    out: &mut Vec<Stmt>,
    cache: &mut Vec<(Expr, u32)>,
) {
    if expr_size(e) >= 2
        && !matches!(e.kind, ExprKind::Lit(_) | ExprKind::Local(_))
        && is_invariant(e, written, globals_written)
    {
        // Reuse an identical hoisted expression if present.
        if let Some((_, slot)) = cache.iter().find(|(c, _)| c == e) {
            let ty = e.ty;
            let line = e.line;
            let mut new = Expr::new(ExprKind::Local(*slot), line);
            new.ty = ty;
            *e = new;
            return;
        }
        let slot = locals.len() as u32;
        locals.push(e.ty);
        let taken = std::mem::replace(e, Expr::new(ExprKind::Local(slot), e.line));
        e.ty = taken.ty;
        out.push(Stmt::Let {
            name: format!("__licm{slot}"),
            ty: Some(taken.ty),
            init: taken.clone(),
            slot,
        });
        cache.push((taken, slot));
        return;
    }
    match &mut e.kind {
        ExprKind::Bin(_, a, b) => {
            hoist_in_expr(a, written, globals_written, locals, out, cache);
            hoist_in_expr(b, written, globals_written, locals, out, cache);
        }
        ExprKind::Un(_, a) | ExprKind::Cast(a, _) => {
            hoist_in_expr(a, written, globals_written, locals, out, cache)
        }
        ExprKind::Call(_, args) | ExprKind::Builtin(_, args) => {
            for a in args.iter_mut() {
                hoist_in_expr(a, written, globals_written, locals, out, cache);
            }
        }
        _ => {}
    }
}

// --------------------------------------------------------------- unrolling

/// Fully unrolls `for (let i = C0; i < C1; i += C2)` loops with a small
/// constant trip count and a small body.
fn unroll_block(stmts: &mut Vec<Stmt>) {
    let mut i = 0;
    while i < stmts.len() {
        match &mut stmts[i] {
            Stmt::If { then, els, .. } => {
                unroll_block(then);
                unroll_block(els);
            }
            Stmt::Block(b) => unroll_block(b),
            Stmt::While { body, .. } => unroll_block(body),
            Stmt::For { body, .. } => unroll_block(body),
            _ => {}
        }
        if let Stmt::For {
            init,
            cond,
            step,
            body,
        } = &stmts[i]
        {
            if let Some(unrolled) = try_unroll(init, cond, step, body) {
                stmts.splice(i..=i, unrolled);
                continue; // re-examine from the same position
            }
        }
        i += 1;
    }
}

fn try_unroll(init: &Stmt, cond: &Expr, step: &Stmt, body: &[Stmt]) -> Option<Vec<Stmt>> {
    const MAX_TRIPS: i64 = 16;
    const MAX_BODY: usize = 8;
    if body.len() > MAX_BODY {
        return None;
    }
    // init: let i = C0  (or i = C0)
    let (ivar, start, ity) = match init {
        Stmt::Let { slot, init: e, ty, .. } => (*slot, lit_i64(e)?, ty.unwrap_or(e.ty)),
        Stmt::Assign {
            target: AssignTarget::Local(slot),
            value,
            ..
        } => (*slot, lit_i64(value)?, value.ty),
        _ => return None,
    };
    // cond: i < C1  or  i <= C1
    let (limit, inclusive) = match &cond.kind {
        ExprKind::Bin(BinOp::Lt, a, b) => match (&a.kind, lit_i64(b)) {
            (ExprKind::Local(v), Some(l)) if *v == ivar => (l, false),
            _ => return None,
        },
        ExprKind::Bin(BinOp::Le, a, b) => match (&a.kind, lit_i64(b)) {
            (ExprKind::Local(v), Some(l)) if *v == ivar => (l, true),
            _ => return None,
        },
        _ => return None,
    };
    // step: i = i + C2 (compound += desugars to this)
    let stride = match step {
        Stmt::Assign {
            target: AssignTarget::Local(slot),
            value,
            ..
        } if *slot == ivar => match &value.kind {
            ExprKind::Bin(BinOp::Add, a, b) => match (&a.kind, lit_i64(b)) {
                (ExprKind::Local(v), Some(k)) if *v == ivar && k > 0 => k,
                _ => return None,
            },
            _ => return None,
        },
        _ => return None,
    };
    let end = if inclusive { limit + 1 } else { limit };
    if end <= start {
        return Some(vec![rebuild_init(init, ivar, start, ity)]);
    }
    let trips = (end - start + stride - 1) / stride;
    if trips > MAX_TRIPS {
        return None;
    }
    // Body must not write the induction variable or break/continue.
    let mut written = HashSet::new();
    let mut gw = false;
    let mut hc = false;
    for s in body {
        collect_writes(s, &mut written, &mut gw, &mut hc);
        if has_break_or_continue(s) {
            return None;
        }
    }
    if written.contains(&ivar) {
        return None;
    }

    let mut out = Vec::with_capacity(trips as usize * (body.len() + 1) + 1);
    let mut v = start;
    while v < end {
        out.push(rebuild_init(init, ivar, v, ity));
        out.extend(body.iter().cloned());
        v += stride;
    }
    out.push(rebuild_init(init, ivar, v, ity));
    Some(out)
}

fn has_break_or_continue(s: &Stmt) -> bool {
    match s {
        Stmt::Break(_) | Stmt::Continue(_) => true,
        Stmt::If { then, els, .. } => {
            then.iter().any(has_break_or_continue) || els.iter().any(has_break_or_continue)
        }
        Stmt::Block(b) => b.iter().any(has_break_or_continue),
        // break/continue inside a nested loop bind to that loop.
        Stmt::While { .. } | Stmt::For { .. } => false,
        _ => false,
    }
}

fn rebuild_init(template: &Stmt, ivar: u32, value: i64, ty: Ty) -> Stmt {
    let lit = if ty == Ty::I64 {
        Lit::I64(value)
    } else {
        Lit::I32(value as i32)
    };
    let mut e = Expr::new(ExprKind::Lit(lit), 0);
    e.ty = ty;
    match template {
        Stmt::Let { name, .. } => Stmt::Let {
            name: name.clone(),
            ty: Some(ty),
            init: e,
            slot: ivar,
        },
        _ => Stmt::Assign {
            name: String::new(),
            value: e,
            target: AssignTarget::Local(ivar),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use crate::parser::parse;

    fn optimized(src: &str, level: OptLevel) -> Program {
        let mut p = parse(src).unwrap();
        let sigs = check(&mut p).unwrap();
        optimize(&mut p, &sigs, level);
        p
    }

    #[test]
    fn level_parse_takes_both_spellings_and_round_trips_display() {
        for l in OptLevel::all() {
            assert_eq!(OptLevel::parse(&l.to_string()), Some(l));
        }
        assert_eq!(OptLevel::parse("O2"), Some(OptLevel::O2));
        for bad in ["O4", "o2", "2", "--O2", ""] {
            assert_eq!(OptLevel::parse(bad), None, "{bad:?}");
        }
    }

    fn body_str(p: &Program, f: usize) -> String {
        format!("{:?}", p.funcs[f].body)
    }

    #[test]
    fn o1_folds_constants() {
        let p = optimized("fn f() -> i32 { return 2 * 3 + 4; }", OptLevel::O1);
        assert!(body_str(&p, 0).contains("I32(10)"));
    }

    #[test]
    fn o1_removes_dead_branches() {
        let p = optimized(
            "fn f() -> i32 { if (0) { return 1; } return 2; }",
            OptLevel::O1,
        );
        assert!(!body_str(&p, 0).contains("If"));
    }

    #[test]
    fn o1_simplifies_identities() {
        let p = optimized("fn f(x: i32) -> i32 { return x * 8 + 0; }", OptLevel::O1);
        let s = body_str(&p, 0);
        assert!(s.contains("Shl"), "{s}");
        assert!(!s.contains("Add"), "{s}");
    }

    #[test]
    fn o2_inlines_single_expression_functions() {
        let p = optimized(
            "fn sq(x: i32) -> i32 { return x * x; } fn f(a: i32) -> i32 { return sq(a) + 1; }",
            OptLevel::O2,
        );
        assert!(!body_str(&p, 1).contains("Call"), "{}", body_str(&p, 1));
    }

    #[test]
    fn o2_does_not_duplicate_impure_args() {
        let p = optimized(
            "global t: i32 = 0;
             fn sq(x: i32) -> i32 { return x * x; }
             fn g() -> i32 { t = t + 1; return t; }
             fn f() -> i32 { return sq(g()); }",
            OptLevel::O2,
        );
        // g() used twice in the inlined body would double the side effect,
        // so the sq() call must remain (g is not inlinable: two statements).
        assert!(body_str(&p, 2).contains("Call"), "{}", body_str(&p, 2));
    }

    #[test]
    fn o2_hoists_invariant_expressions() {
        let p = optimized(
            "fn f(a: i32, b: i32, n: i32) -> i32 {
                let s: i32 = 0;
                let i: i32 = 0;
                while (i < n) { s = s + (a + 1) * (b + 2); i = i + 1; }
                return s;
            }",
            OptLevel::O2,
        );
        let s = body_str(&p, 0);
        assert!(s.contains("__licm"), "{s}");
    }

    #[test]
    fn o3_unrolls_small_loops() {
        let p = optimized(
            "fn f() -> i32 { let s: i32 = 0; for (let i: i32 = 0; i < 4; i += 1) { s += i; } return s; }",
            OptLevel::O3,
        );
        let s = body_str(&p, 0);
        assert!(!s.contains("For"), "{s}");
    }

    #[test]
    fn o3_keeps_large_loops() {
        let p = optimized(
            "fn f() -> i32 { let s: i32 = 0; for (let i: i32 = 0; i < 1000; i += 1) { s += i; } return s; }",
            OptLevel::O3,
        );
        assert!(body_str(&p, 0).contains("For"));
    }

    #[test]
    fn levels_are_ordered() {
        assert!(OptLevel::O0 < OptLevel::O1);
        assert!(OptLevel::O2 < OptLevel::O3);
        assert_eq!(OptLevel::all().len(), 4);
    }
    #[test]
    fn licm_does_not_hoist_globals_across_calls() {
        // `g` is written by the callee; `g - 1` must stay in the loop.
        let src = "global g: i32 = 0;
             fn bump() { g = g + 1; }
             export fn f() -> i32 {
                 let s: i32 = 0;
                 let i: i32 = 0;
                 while (i < 5) { bump(); s = s + (g - 1) * (g - 1); i = i + 1; }
                 return s;
             }";
        let mut p = crate::parser::parse(src).unwrap();
        let sigs = crate::check::check(&mut p).unwrap();
        let mut p2 = p.clone();
        optimize(&mut p2, &sigs, OptLevel::O2);
        let mut ev0 = crate::eval::Evaluator::new(&p);
        let mut ev2 = crate::eval::Evaluator::new(&p2);
        assert_eq!(
            ev0.call("f", &[]).unwrap(),
            ev2.call("f", &[]).unwrap(),
            "O2 must preserve semantics"
        );
    }
}
