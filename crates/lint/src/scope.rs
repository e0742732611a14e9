//! A brace-matched item/scope parser over the token stream — deliberately
//! *not* a full AST.
//!
//! The structural rules (`panic-reachability`, `lock-across-blocking`)
//! need to know where
//! functions begin and end, what they are called, whether they are `pub`,
//! and which `impl`/`mod` they live in. Nothing more: expressions stay
//! opaque token runs, and rules match patterns inside a function's token
//! range with the same explicit-token discipline as the flat rules.
//!
//! The parser walks the code tokens once with a scope stack (modules, impl
//! blocks, traits, functions, anonymous braces). It is resilient by
//! construction: unknown constructs fall into anonymous scopes, and
//! unbalanced input simply truncates at end of file — the analyzer must
//! never crash on the code it is judging. Closures are left to the rules
//! (they carry no name and are always inside some function's range, which
//! is the granularity the rules need).

use crate::lexer::{Token, TokenKind};

/// One function item found by the scope parser.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Simple name, e.g. `matmul_reference`.
    pub name: String,
    /// Qualified name: `Type::name` inside an `impl Type`/`trait Type`
    /// block, `module::name` inside a named inline module, plain `name` at
    /// file scope. Nested qualifiers chain left to right.
    pub qual: String,
    /// True for bare `pub` (not `pub(crate)`/`pub(super)` — those are not
    /// part of the crate's external API surface).
    pub is_pub: bool,
    /// Index (into the file's full token vec) of the `fn` keyword.
    pub sig_start: usize,
    /// Index of the body's opening `{` token.
    pub body_open: usize,
    /// Index of the body's closing `}` token (or the last token of the file
    /// when the input is truncated).
    pub body_close: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
}

/// What kind of named scope a stack frame represents.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ScopeKind {
    /// `mod name { … }` — contributes `name::` to qualifiers.
    Module(String),
    /// `impl Type { … }` / `trait Type { … }` — contributes `Type::`.
    ImplLike(String),
    /// A function body (qualifier already fixed at entry).
    Fn,
    /// Any other brace pair: blocks, match arms, struct literals, macros.
    Anonymous,
}

struct Frame {
    kind: ScopeKind,
    /// Index into the pending-fn list, for [`ScopeKind::Fn`] frames.
    fn_slot: Option<usize>,
}

/// Keywords that can never be a call or a path qualifier; used when
/// deciding whether an identifier before `(`/`[` means a call/index.
pub const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn", "for",
    "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return",
    "self", "Self", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while",
];

/// True when `name` is a Rust keyword (from the subset the parser cares
/// about).
pub fn is_keyword(name: &str) -> bool {
    KEYWORDS.contains(&name)
}

/// Parses the function items of a lexed file. `tokens` is the full token
/// stream (comments included — they are skipped internally, so indices in
/// the returned items refer to the same vec).
pub fn parse_fns(tokens: &[Token]) -> Vec<FnItem> {
    // Work over code tokens, but remember their original indices.
    let code: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.is_code())
        .collect();

    let mut items: Vec<FnItem> = Vec::new();
    let mut stack: Vec<Frame> = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        let (orig, tok) = code[i];
        match tok.kind {
            TokenKind::Punct if tok.is_punct('{') => {
                stack.push(Frame {
                    kind: ScopeKind::Anonymous,
                    fn_slot: None,
                });
                i += 1;
            }
            TokenKind::Punct if tok.is_punct('}') => {
                if let Some(frame) = stack.pop() {
                    if let Some(slot) = frame.fn_slot {
                        if let Some(item) = items.get_mut(slot) {
                            item.body_close = orig;
                        }
                    }
                }
                i += 1;
            }
            TokenKind::Ident if tok.text == "mod" => {
                // `mod name {` opens a module scope; `mod name;` is an
                // out-of-line module and contributes nothing here.
                if let (Some((_, name_tok)), Some((_, open))) = (code.get(i + 1), code.get(i + 2)) {
                    if name_tok.kind == TokenKind::Ident && open.is_punct('{') {
                        stack.push(Frame {
                            kind: ScopeKind::Module(name_tok.text.clone()),
                            fn_slot: None,
                        });
                        i += 3;
                        continue;
                    }
                }
                i += 1;
            }
            TokenKind::Ident if tok.text == "impl" || tok.text == "trait" => {
                // Scan to the opening `{` (or `;` for `trait A = B;`-style
                // aliases), extracting the self-type name: the last
                // angle-depth-0 identifier before the brace, restarting at
                // `for` (`impl Trait for Type`), stopping at `where`.
                let mut name: Option<String> = None;
                let mut angle = 0i32;
                let mut in_where = false;
                let mut j = i + 1;
                let mut open_at: Option<usize> = None;
                while j < code.len() {
                    let (_, t) = code[j];
                    if t.is_punct('{') && angle <= 0 {
                        open_at = Some(j);
                        break;
                    }
                    if t.is_punct(';') && angle <= 0 {
                        break;
                    }
                    if t.is_punct('<') {
                        angle += 1;
                    } else if t.is_punct('>') {
                        // `->` in a bound: the `>` does not close a generic
                        // list.
                        let arrow = j > 0 && code[j - 1].1.is_punct('-');
                        if !arrow && angle > 0 {
                            angle -= 1;
                        }
                    } else if angle == 0 && !in_where && t.kind == TokenKind::Ident {
                        match t.text.as_str() {
                            "for" => name = None,
                            // Idents in the where clause are bounds, not the
                            // self type — keep scanning for the `{` though.
                            "where" => in_where = true,
                            "dyn" | "crate" | "super" | "self" => {}
                            other => name = Some(other.to_string()),
                        }
                    }
                    j += 1;
                }
                match open_at {
                    Some(open) => {
                        stack.push(Frame {
                            kind: ScopeKind::ImplLike(name.unwrap_or_default()),
                            fn_slot: None,
                        });
                        i = open + 1;
                    }
                    None => i = j + 1,
                }
            }
            TokenKind::Ident if tok.text == "fn" => {
                let Some((_, name_tok)) = code.get(i + 1) else {
                    i += 1;
                    continue;
                };
                if name_tok.kind != TokenKind::Ident {
                    // `fn(` — a bare function-pointer type, not an item.
                    i += 1;
                    continue;
                }
                let name = name_tok.text.clone();
                // Find the body `{` (or `;` for trait method declarations)
                // at bracket/paren depth 0 of the signature.
                let mut depth = 0i32;
                let mut j = i + 2;
                let mut open_at: Option<usize> = None;
                while j < code.len() {
                    let (_, t) = code[j];
                    if t.is_punct('(') || t.is_punct('[') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') {
                        depth -= 1;
                    } else if depth == 0 && t.is_punct('{') {
                        open_at = Some(j);
                        break;
                    } else if depth == 0 && t.is_punct(';') {
                        break;
                    }
                    j += 1;
                }
                let Some(open) = open_at else {
                    // Declaration without a body: nothing to record.
                    i = j + 1;
                    continue;
                };
                let qual = qualify(&stack, &name);
                let is_pub = leading_bare_pub(&code, i);
                let slot = items.len();
                items.push(FnItem {
                    name,
                    qual,
                    is_pub,
                    sig_start: orig,
                    body_open: code[open].0,
                    body_close: tokens.len().saturating_sub(1),
                    line: tok.line,
                    col: tok.col,
                });
                stack.push(Frame {
                    kind: ScopeKind::Fn,
                    fn_slot: Some(slot),
                });
                i = open + 1;
            }
            _ => i += 1,
        }
    }
    items
}

/// Builds the qualified name for a fn declared under `stack`.
fn qualify(stack: &[Frame], name: &str) -> String {
    let mut parts: Vec<&str> = Vec::new();
    for frame in stack {
        match &frame.kind {
            ScopeKind::Module(m) if !m.is_empty() => parts.push(m),
            ScopeKind::ImplLike(t) if !t.is_empty() => parts.push(t),
            _ => {}
        }
    }
    parts.push(name);
    parts.join("::")
}

/// True when the item at code index `fn_idx` (the `fn` keyword) is preceded
/// by a bare `pub` within its modifier run (`pub const unsafe fn …`).
/// `pub(crate)`/`pub(super)` are restricted and return false.
fn leading_bare_pub(code: &[(usize, &Token)], fn_idx: usize) -> bool {
    // Walk backwards over fn modifiers.
    let mut j = fn_idx;
    while j > 0 {
        let (_, t) = code[j - 1];
        match t.kind {
            TokenKind::Ident
                if matches!(t.text.as_str(), "const" | "unsafe" | "extern" | "async") =>
            {
                j -= 1;
            }
            TokenKind::Str => j -= 1, // extern "C"
            TokenKind::Ident if t.text == "pub" => {
                // Bare only: `pub(` is a restricted visibility.
                return !code.get(j).is_some_and(|(_, n)| n.is_punct('('));
            }
            _ => break,
        }
    }
    // Also the form `pub ( crate ) fn` where the modifier run starts past
    // the closing `)`.
    if j >= 4 {
        let close = code[j - 1].1.is_punct(')');
        let open = code[j - 3].1.is_punct('(');
        let vis = code[j - 4].1.is_ident("pub");
        if close && open && vis {
            return false;
        }
    }
    false
}

/// Finds the function item whose body token range contains `token_idx`
/// (the innermost one, when nested fns are involved).
pub fn enclosing_fn(fns: &[FnItem], token_idx: usize) -> Option<&FnItem> {
    fns.iter()
        .filter(|f| (f.sig_start..=f.body_close).contains(&token_idx))
        .min_by_key(|f| f.body_close - f.sig_start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn fns_of(src: &str) -> Vec<FnItem> {
        parse_fns(&lex(src))
    }

    #[test]
    fn finds_free_impl_and_module_fns() {
        let src = r#"
            pub fn free() { helper(); }
            fn helper() {}
            impl Matrix {
                pub fn matmul_reference(&self) -> f64 { 0.0 }
                fn private(&self) {}
            }
            mod inner {
                pub fn nested() {}
            }
            impl Display for Matrix {
                fn fmt(&self) {}
            }
        "#;
        let fns = fns_of(src);
        let quals: Vec<&str> = fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(
            quals,
            [
                "free",
                "helper",
                "Matrix::matmul_reference",
                "Matrix::private",
                "inner::nested",
                "Matrix::fmt"
            ],
            "{fns:#?}"
        );
        assert!(fns[0].is_pub && !fns[1].is_pub);
        assert!(fns[2].is_pub && !fns[3].is_pub);
    }

    #[test]
    fn restricted_visibility_is_not_pub() {
        let src = "pub(crate) fn a() {} pub fn b() {} pub(super) fn c() {}";
        let fns = fns_of(src);
        let flags: Vec<bool> = fns.iter().map(|f| f.is_pub).collect();
        assert_eq!(flags, [false, true, false], "{fns:#?}");
    }

    #[test]
    fn bodies_are_brace_matched_through_nesting() {
        let src = "fn outer() { if x { y(); } match z { _ => {} } } fn after() {}";
        let fns = fns_of(src);
        assert_eq!(fns.len(), 2);
        let toks = lex(src);
        assert!(toks[fns[0].body_close].is_punct('}'));
        // `after` starts past `outer`'s close.
        assert!(fns[1].sig_start > fns[0].body_close);
    }

    #[test]
    fn generics_and_where_clauses_do_not_confuse_impl_names() {
        let src = r#"
            impl<T: Iterator<Item = f64>> Wrapper<T> where T: Clone {
                fn get(&self) -> f64 { 0.0 }
            }
        "#;
        let fns = fns_of(src);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].qual, "Wrapper::get", "{fns:#?}");
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "fn real(callback: fn() -> usize) -> usize { callback() }";
        let fns = fns_of(src);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "real");
    }

    #[test]
    fn nested_fns_resolve_to_the_innermost_enclosing() {
        let src = "fn outer() { fn inner() { deep(); } inner(); }";
        let toks = lex(src);
        let fns = parse_fns(&toks);
        assert_eq!(fns.len(), 2);
        let deep_idx = toks
            .iter()
            .position(|t| t.is_ident("deep"))
            .expect("deep token");
        let found = enclosing_fn(&fns, deep_idx).expect("enclosed");
        assert_eq!(found.name, "inner");
    }
}
