//! The two structural rules, built on the scope parser ([`crate::scope`])
//! and the workspace call graph ([`crate::callgraph`]).
//!
//! Where the flat rules in [`crate::rules`] match token patterns on single
//! lines, these reason about *extents*: which function a token belongs to,
//! how far a lock guard's scope runs, which `pub` API transitively reaches
//! a panic site. They stay over-approximate in the same spirit — a false
//! positive costs one justified suppression, a false negative costs a
//! silently broken contract.

use crate::callgraph;
use crate::diag::Finding;
use crate::lexer::{Token, TokenKind};
use crate::scope::is_keyword;
use crate::source::{FileKind, SourceFile};

/// Crates where `[]` indexing and panicking slice methods count as panic
/// sites for reachability: their shipping code sits behind
/// externally-driven input (wire bytes, metric values), where an
/// out-of-bounds is a request-triggerable abort. Numeric crates are exempt
/// — their indices are loop-bounded by construction and covered by
/// property tests — as is pnc-lint itself (a tool crash is a loud CI
/// failure, the same failure mode as a binary).
const INDEX_SITE_CRATES: &[&str] = &["pnc-serve", "pnc-obs"];

/// Slice methods that panic on bad arguments, counted as sites in
/// [`INDEX_SITE_CRATES`].
const PANICKY_SLICE_METHODS: &[&str] = &["split_at", "split_at_mut", "copy_from_slice"];

/// Crates the lock-across-blocking rule patrols: worker pools and
/// connection handlers, where a guard held across a blocking call lets one
/// stalled peer wedge every thread contending for the lock.
const LOCK_RULE_CRATES: &[&str] = &["pnc-serve"];

/// Method names that block on I/O, a peer, or a thread.
const BLOCKING_IDENTS: &[&str] = &[
    "wait",
    "wait_timeout",
    "wait_while",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "write_all",
    "flush",
    "read_frame",
    "write_frame",
    "connect",
    "accept",
    "incoming",
    "join",
    "recv",
    "recv_timeout",
    "send",
    "send_timeout",
];

/// Runs every structural rule.
pub fn check_structural(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    panic_reachability(files, &mut findings);
    for file in files {
        lock_across_blocking(file, &mut findings);
    }
    findings
}

// ---------------------------------------------------------- panic-reachability

/// One residual panic site found in library code.
struct PanicSite {
    file: usize,
    token: usize,
    what: String,
}

fn panic_reachability(files: &[SourceFile], out: &mut Vec<Finding>) {
    const RULE: &str = "panic-reachability";
    let graph = callgraph::build(files);
    let reach = graph.reach_from_pub(files);

    let mut sites: Vec<PanicSite> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if !matches!(file.kind, FileKind::CrateRoot | FileKind::Lib) {
            continue;
        }
        let index_sites = INDEX_SITE_CRATES.contains(&file.crate_name.as_str());
        let code: Vec<(usize, &Token)> = file.code_tokens().collect();
        for (c, &(orig, tok)) in code.iter().enumerate() {
            if file.is_test_line(tok.line) {
                continue;
            }
            match tok.kind {
                TokenKind::Ident => {
                    let method_call = matches!(tok.text.as_str(), "unwrap" | "expect")
                        && c > 0
                        && code[c - 1].1.is_punct('.');
                    let macro_call = matches!(
                        tok.text.as_str(),
                        "panic" | "unreachable" | "todo" | "unimplemented"
                    ) && code.get(c + 1).is_some_and(|(_, t)| t.is_punct('!'));
                    let slice_method = index_sites
                        && PANICKY_SLICE_METHODS.contains(&tok.text.as_str())
                        && c > 0
                        && code[c - 1].1.is_punct('.')
                        && code.get(c + 1).is_some_and(|(_, t)| t.is_punct('('));
                    if method_call || slice_method {
                        sites.push(PanicSite {
                            file: fi,
                            token: orig,
                            what: format!(".{}()", tok.text),
                        });
                    } else if macro_call {
                        sites.push(PanicSite {
                            file: fi,
                            token: orig,
                            what: format!("{}!", tok.text),
                        });
                    }
                }
                TokenKind::Punct if index_sites && tok.is_punct('[') && c > 0 => {
                    // `expr[...]` indexing: `[` directly after an index-able
                    // expression tail — an identifier (not a keyword) or a
                    // closing `)`/`]`. Everything else (`#[attr]`, `vec![`,
                    // `[T; N]` types, array literals after `=`/`(`) is not
                    // an Index::index call.
                    let prev = code[c - 1].1;
                    let indexes = match prev.kind {
                        TokenKind::Ident => !is_keyword(&prev.text),
                        TokenKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
                        _ => false,
                    };
                    if indexes {
                        sites.push(PanicSite {
                            file: fi,
                            token: orig,
                            what: "`[]` indexing".to_string(),
                        });
                    }
                }
                _ => {}
            }
        }
    }

    for site in &sites {
        let file = &files[site.file];
        let Some(item_idx) = file
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| (f.sig_start..=f.body_close).contains(&site.token))
            .min_by_key(|(_, f)| f.body_close - f.sig_start)
            .map(|(i, _)| i)
        else {
            continue; // site outside any fn (const initializer) — compile-time
        };
        let Some(node) = graph.node_of(site.file, item_idx) else {
            continue; // enclosing fn is test-only
        };
        let Some(dist) = reach.dist(node) else {
            continue; // not reachable from any pub API
        };
        let tok = &file.tokens[site.token];
        let path = reach.path(&graph, files, node);
        let route = if dist == 0 {
            format!("inside pub fn `{}` itself", path.join(" -> "))
        } else {
            let unit = if dist == 1 { "call" } else { "calls" };
            format!("via `{}` ({dist} {unit})", path.join(" -> "))
        };
        out.push(Finding::new(
            RULE,
            &file.path,
            tok.line,
            tok.col,
            format!(
                "{} is reachable from the pub API {route}; return a Result, bound the \
                 access, or suppress with the invariant that rules the panic out",
                site.what
            ),
        ));
    }
}

// -------------------------------------------------------- lock-across-blocking

/// A live lock-guard binding.
struct Guard {
    name: String,
    depth: i32,
    line: u32,
}

fn lock_across_blocking(file: &SourceFile, out: &mut Vec<Finding>) {
    const RULE: &str = "lock-across-blocking";
    if !LOCK_RULE_CRATES.contains(&file.crate_name.as_str()) || !file.kind.is_shipping() {
        return;
    }
    let code: Vec<(usize, &Token)> = file.code_tokens().collect();
    for item in &file.fns {
        // Code-token indices of the body interior.
        let body: Vec<usize> = (0..code.len())
            .filter(|&c| code[c].0 > item.body_open && code[c].0 < item.body_close)
            .collect();
        let mut guards: Vec<Guard> = Vec::new();
        let mut depth = 0i32;
        let mut b = 0usize;
        while b < body.len() {
            let c = body[b];
            let tok = code[c].1;
            if tok.is_punct('{') {
                depth += 1;
            } else if tok.is_punct('}') {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
            } else if tok.is_ident("let") {
                // `let [mut] name = … .lock( … ) … ;` at this depth starts a
                // guard; any other `let name` re-binding kills a prior guard
                // of the same name.
                let mut n = b + 1;
                if n < body.len() && code[body[n]].1.is_ident("mut") {
                    n += 1;
                }
                if n < body.len() && code[body[n]].1.kind == TokenKind::Ident {
                    let name = code[body[n]].1.text.clone();
                    if stmt_locks(&code, &body, n + 1) {
                        guards.retain(|g| g.name != name);
                        guards.push(Guard {
                            name,
                            depth,
                            line: tok.line,
                        });
                    } else {
                        guards.retain(|g| g.name != name);
                    }
                }
            } else if tok.is_ident("drop")
                && body.get(b + 1).is_some_and(|&n| code[n].1.is_punct('('))
                && body
                    .get(b + 2)
                    .is_some_and(|&n| code[n].1.kind == TokenKind::Ident)
                && body.get(b + 3).is_some_and(|&n| code[n].1.is_punct(')'))
            {
                let name = &code[body[b + 2]].1.text;
                guards.retain(|g| &g.name != name);
                b += 3;
            } else if tok.kind == TokenKind::Ident
                && BLOCKING_IDENTS.contains(&tok.text.as_str())
                && !file.is_test_line(tok.line)
                && b > 0
                && (code[body[b - 1]].1.is_punct('.') || code[body[b - 1]].1.is_punct(':'))
                && body.get(b + 1).is_some_and(|&n| code[n].1.is_punct('('))
            {
                let args = call_args(&code, &body, b + 1);
                for g in &guards {
                    // A guard passed *into* the call is being consumed
                    // (`condvar.wait(state)` takes it by value) — that is
                    // the correct idiom, not a hold-across-block.
                    if args.iter().any(|a| a == &g.name) {
                        continue;
                    }
                    out.push(Finding::new(
                        RULE,
                        &file.path,
                        tok.line,
                        tok.col,
                        format!(
                            "lock guard `{}` (taken on line {}) is live across blocking \
                             `.{}()`; a stalled peer holds up every thread contending for \
                             the mutex — drop the guard or narrow its scope first",
                            g.name, g.line, tok.text
                        ),
                    ));
                }
            }
            b += 1;
        }
    }
}

/// True when the statement starting at body position `start` (just past
/// `let [mut] name`) contains `.lock(` at its own brace depth — i.e. the
/// binding *is* the guard, not a block expression that locked internally.
fn stmt_locks(code: &[(usize, &Token)], body: &[usize], start: usize) -> bool {
    let mut depth = 0i32;
    let mut b = start;
    while b < body.len() {
        let tok = code[body[b]].1;
        if tok.is_punct('{') {
            depth += 1;
        } else if tok.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return false;
            }
        } else if depth == 0 && tok.is_punct(';') {
            return false;
        } else if depth == 0
            && tok.is_ident("lock")
            && b > 0
            && code[body[b - 1]].1.is_punct('.')
            && body.get(b + 1).is_some_and(|&n| code[n].1.is_punct('('))
        {
            return true;
        }
        b += 1;
    }
    false
}

/// Identifier tokens inside the call whose `(` sits at body position
/// `open_b`.
fn call_args(code: &[(usize, &Token)], body: &[usize], open_b: usize) -> Vec<String> {
    let mut args = Vec::new();
    let mut depth = 0i32;
    let mut b = open_b;
    while b < body.len() {
        let tok = code[body[b]].1;
        if tok.is_punct('(') {
            depth += 1;
        } else if tok.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if tok.kind == TokenKind::Ident && !is_keyword(&tok.text) {
            args.push(tok.text.clone());
        }
        b += 1;
    }
    args
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileKind, SourceFile};

    fn serve_file(src: &str) -> SourceFile {
        SourceFile::parse("crates/serve/src/x.rs", "pnc-serve", FileKind::Lib, src)
    }

    #[test]
    fn guard_across_blocking_io_is_flagged() {
        let f = serve_file(
            r#"
            fn handler(&self) {
                let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
                self.stream.write_all(&bytes)?;
            }
            "#,
        );
        let mut out = Vec::new();
        lock_across_blocking(&f, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert!(out[0].message.contains("`state`"), "{}", out[0].message);
    }

    #[test]
    fn condvar_wait_consuming_the_guard_is_the_correct_idiom() {
        let f = serve_file(
            r#"
            fn next(&self) {
                let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
                }
            }
            "#,
        );
        let mut out = Vec::new();
        lock_across_blocking(&f, &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn guard_scoped_in_an_inner_block_before_join_is_clean() {
        let f = serve_file(
            r#"
            fn shutdown(&self) {
                let workers = {
                    let mut guard = self.workers.lock().unwrap_or_else(|e| e.into_inner());
                    std::mem::take(&mut *guard)
                };
                for w in workers { let _ = w.join(); }
            }
            "#,
        );
        let mut out = Vec::new();
        lock_across_blocking(&f, &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn dropped_guard_is_dead_before_the_blocking_call() {
        let f = serve_file(
            r#"
            fn push(&self) {
                let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
                drop(state);
                self.stream.flush()?;
            }
            "#,
        );
        let mut out = Vec::new();
        lock_across_blocking(&f, &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    /// Lines of the `rayon-confinement` findings in `src`. The parallel
    /// reduction shapes below once needed this pass's scope analysis; the
    /// flat rule catches them at the `par_iter` that starts the chain, and
    /// these tests keep that so.
    fn rayon_lines(src: &str) -> Vec<u32> {
        let f = SourceFile::parse("crates/core/src/x.rs", "pnc-core", FileKind::Lib, src);
        crate::rules::check_file(&f)
            .iter()
            .filter(|x| x.rule == "rayon-confinement")
            .map(|x| x.line)
            .collect()
    }

    #[test]
    fn deferred_par_chain_reduced_later_is_flagged() {
        let lines = rayon_lines(
            r#"
            fn total(xs: &[f64]) -> f64 {
                let chain = xs.par_iter().map(|x| x * 2.0);
                chain.sum()
            }
            "#,
        );
        assert_eq!(lines, [3]);
    }

    #[test]
    fn captured_accumulator_is_flagged_but_closure_locals_are_not() {
        let lines = rayon_lines(
            r#"
            fn bad(xs: &[f64], total: &mut f64) {
                xs.par_iter().for_each(|x| { *total += x; });
            }
            fn good(cfg: &ParallelConfig, xs: &[f64]) -> Vec<f64> {
                cfg.ordered_par_map(xs, |x| { let mut acc = 0.0; acc += x; acc })
            }
            "#,
        );
        assert_eq!(lines, [3]);
    }
}
