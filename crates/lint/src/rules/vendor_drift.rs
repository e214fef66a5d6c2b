//! `vendor-drift`: every `pub` item a `vendor/` shim exposes must be listed
//! in that shim's checked-in `MANIFEST`.
//!
//! The shims exist because the build is offline: each mimics the API subset
//! of a real crates.io crate so the workspace can swap in the real crate on a
//! networked build with a one-line `[workspace.dependencies]` change. That
//! swap only works while the shim's public surface stays a *subset* of the
//! real crate's. Without a gate, a convenient helper added to a shim today is
//! an API the real crate lacks tomorrow — and the swap breaks silently, long
//! after anyone remembers why. The MANIFEST is the reviewed inventory; the
//! rule fails on any `pub` item not in it, so growing a shim is always an
//! explicit, diffable act (`holistix-lint inventory vendor/<shim>`).
//!
//! Coverage is item-level: free functions, methods in impls, trait methods,
//! types, consts, statics, re-exports and `#[macro_export]` macros. Struct
//! fields and enum variants are finer than the swap risk needs
//! (adding one changes an *existing* listed item, which review sees); the
//! rule documents rather than hides that limit.

use crate::engine::{Config, FileCtx, Finding};
use crate::lexer::{lex, Tok, TokKind};
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub const NAME: &str = "vendor-drift";

/// One public item discovered in a shim source file.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PubItem {
    /// `fn`, `struct`, `enum`, `trait`, `type`, `const`, `static`, `mod`,
    /// `use`, or `macro`.
    pub kind: &'static str,
    /// Module-qualified path inside the shim, e.g. `thread::Scope::spawn`.
    pub path: String,
    pub line: u32,
}

impl PubItem {
    /// The line format stored in `MANIFEST`.
    pub fn manifest_line(&self) -> String {
        format!("{} {}", self.kind, self.path)
    }
}

/// Brace contexts while scanning (one per `{`).
#[derive(Debug, Clone, PartialEq)]
enum Ctx {
    Mod { name: String, public: bool },
    Impl { type_name: String },
    Trait { name: String, public: bool },
    Fn,
    Other,
}

struct Scanner<'a> {
    toks: &'a [Tok],
    code: Vec<usize>,
}

impl<'a> Scanner<'a> {
    fn tok(&self, ci: usize) -> Option<&'a Tok> {
        self.code.get(ci).map(|&raw| &self.toks[raw])
    }

    /// The type name an `impl` header targets (the last path identifier of
    /// the implemented-on type, after `for` when present) and the code index
    /// of the header's opening `{`.
    fn impl_type_name(&self, mut ci: usize) -> (String, usize) {
        // Skip the impl's own generic parameters: `impl<T: Bound> …`.
        if self.tok(ci).is_some_and(|t| t.is_punct('<')) {
            let mut angle = 0i32;
            while let Some(t) = self.tok(ci) {
                if t.is_punct('<') {
                    angle += 1;
                } else if t.is_punct('>') {
                    angle -= 1;
                    if angle == 0 {
                        ci += 1;
                        break;
                    }
                }
                ci += 1;
            }
        }
        let mut name = String::new();
        let mut angle = 0i32;
        while let Some(t) = self.tok(ci) {
            if angle == 0 {
                if t.is_punct('{') || t.is_ident("where") {
                    break;
                }
                if t.is_ident("for") {
                    name.clear(); // the trait came first; the type follows
                    ci += 1;
                    continue;
                }
                if t.kind == TokKind::Ident {
                    name = t.text.clone(); // last ident wins: `a::b::Type`
                }
            }
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle = (angle - 1).max(0);
            }
            ci += 1;
        }
        // Past a possible `where` clause to the body's `{`.
        while let Some(t) = self.tok(ci) {
            if t.is_punct('{') {
                break;
            }
            ci += 1;
        }
        (name, ci)
    }

    /// Expand a `use …;` tail into leaf names (handles `{a, b as c}` groups
    /// and glob imports) and return the index of the terminating `;`.
    fn use_leaves(&self, mut ci: usize) -> (Vec<String>, usize) {
        let mut leaves = Vec::new();
        let mut current: Option<String> = None;
        while let Some(t) = self.tok(ci) {
            if t.is_punct(';') {
                break;
            }
            match t.kind {
                TokKind::Ident if t.is_ident("as") => current = None, // alias replaces leaf
                TokKind::Ident => current = Some(t.text.clone()),
                TokKind::Punct => {
                    let c = t.text.chars().next().unwrap_or(' ');
                    if c == ',' || c == '}' {
                        if let Some(leaf) = current.take() {
                            leaves.push(leaf);
                        }
                    } else if c == '*' {
                        current = Some("*".to_string());
                    }
                }
                _ => {}
            }
            ci += 1;
        }
        if let Some(leaf) = current.take() {
            leaves.push(leaf);
        }
        (leaves, ci)
    }
}

/// Scan a token stream for the public items it declares.
pub fn scan_pub_items_toks(toks: &[Tok]) -> Vec<PubItem> {
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let scanner = Scanner { toks, code };

    let in_fn = |stack: &[Ctx]| stack.iter().any(|c| matches!(c, Ctx::Fn));
    let mods_public = |stack: &[Ctx]| {
        stack
            .iter()
            .all(|c| !matches!(c, Ctx::Mod { public: false, .. }))
    };
    let path_of = |stack: &[Ctx], name: &str| -> String {
        let mut parts: Vec<&str> = Vec::new();
        for c in stack {
            match c {
                Ctx::Mod { name, .. } => parts.push(name),
                Ctx::Impl { type_name } => parts.push(type_name),
                Ctx::Trait { name, .. } => parts.push(name),
                _ => {}
            }
        }
        parts.push(name);
        parts.join("::")
    };

    let mut items: Vec<PubItem> = Vec::new();
    let mut stack: Vec<Ctx> = Vec::new();
    let mut pending: Option<Ctx> = None;
    let mut vis_pub = false;
    let mut macro_export = false;
    let mut ci = 0usize;

    while let Some(tok) = scanner.tok(ci) {
        let line = tok.line;
        let next_name = |offset: usize| -> String {
            scanner
                .tok(ci + offset)
                .map(|t| t.text.clone())
                .unwrap_or_default()
        };
        match tok.text.as_str() {
            // Attribute: note #[macro_export], then skip the bracket group.
            "#" if tok.is_punct('#') && scanner.tok(ci + 1).is_some_and(|t| t.is_punct('[')) => {
                if scanner
                    .tok(ci + 2)
                    .is_some_and(|t| t.is_ident("macro_export"))
                {
                    macro_export = true;
                }
                let mut depth = 0i32;
                ci += 1;
                while let Some(t) = scanner.tok(ci) {
                    if t.is_punct('[') {
                        depth += 1;
                    } else if t.is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    ci += 1;
                }
            }
            "{" if tok.is_punct('{') => {
                stack.push(pending.take().unwrap_or(Ctx::Other));
                vis_pub = false;
            }
            "}" if tok.is_punct('}') => {
                stack.pop();
                pending = None;
                vis_pub = false;
            }
            ";" if tok.is_punct(';') => {
                pending = None;
                vis_pub = false;
            }
            "pub" if tok.is_ident("pub") => {
                // `pub(crate)` / `pub(super)` are not public API.
                vis_pub = !scanner.tok(ci + 1).is_some_and(|t| t.is_punct('('));
            }
            "fn" if tok.is_ident("fn") && !in_fn(&stack) => {
                let in_pub_trait = matches!(stack.last(), Some(Ctx::Trait { public: true, .. }));
                if (vis_pub || in_pub_trait) && mods_public(&stack) {
                    items.push(PubItem {
                        kind: "fn",
                        path: path_of(&stack, &next_name(1)),
                        line,
                    });
                }
                pending = Some(Ctx::Fn);
                vis_pub = false;
            }
            "mod" if tok.is_ident("mod") && !in_fn(&stack) => {
                let name = next_name(1);
                let public = vis_pub && mods_public(&stack);
                if public {
                    items.push(PubItem {
                        kind: "mod",
                        path: path_of(&stack, &name),
                        line,
                    });
                }
                pending = Some(Ctx::Mod {
                    name,
                    public: vis_pub,
                });
                vis_pub = false;
            }
            "trait" if tok.is_ident("trait") && !in_fn(&stack) => {
                let name = next_name(1);
                let public = vis_pub && mods_public(&stack);
                if public {
                    items.push(PubItem {
                        kind: "trait",
                        path: path_of(&stack, &name),
                        line,
                    });
                }
                pending = Some(Ctx::Trait { name, public });
                vis_pub = false;
            }
            "impl" if tok.is_ident("impl") && !in_fn(&stack) => {
                let (type_name, open) = scanner.impl_type_name(ci + 1);
                pending = Some(Ctx::Impl { type_name });
                vis_pub = false;
                // Jump to the body's `{` so the header's own tokens (which
                // may contain `for`, `where`, generics) are not re-scanned.
                ci = open;
                continue;
            }
            "struct" | "enum" | "type" | "const" | "static"
                if tok.kind == TokKind::Ident && !in_fn(&stack) =>
            {
                // `const` also appears in `const fn` / `pub const fn`: leave
                // those for the `fn` arm.
                let is_const_fn =
                    tok.is_ident("const") && scanner.tok(ci + 1).is_some_and(|t| t.is_ident("fn"));
                if !is_const_fn {
                    if vis_pub && mods_public(&stack) {
                        let kind = match tok.text.as_str() {
                            "struct" => "struct",
                            "enum" => "enum",
                            "type" => "type",
                            "const" => "const",
                            _ => "static",
                        };
                        items.push(PubItem {
                            kind,
                            path: path_of(&stack, &next_name(1)),
                            line,
                        });
                    }
                    pending = Some(Ctx::Other);
                    vis_pub = false;
                }
            }
            "use" if tok.is_ident("use") && !in_fn(&stack) => {
                if vis_pub && mods_public(&stack) {
                    let (leaves, end) = scanner.use_leaves(ci + 1);
                    for leaf in leaves {
                        items.push(PubItem {
                            kind: "use",
                            path: path_of(&stack, &leaf),
                            line,
                        });
                    }
                    ci = end;
                }
                vis_pub = false;
            }
            "macro_rules" if tok.is_ident("macro_rules") => {
                if macro_export {
                    // `#[macro_export]` hoists the macro to the crate root.
                    items.push(PubItem {
                        kind: "macro",
                        path: next_name(2),
                        line,
                    });
                    macro_export = false;
                }
                pending = Some(Ctx::Other);
            }
            _ => {}
        }
        ci += 1;
    }
    items.sort();
    items.dedup();
    items
}

/// Scan shim source text for its public items.
pub fn scan_pub_items(source: &str) -> Vec<PubItem> {
    scan_pub_items_toks(&lex(source))
}

/// Inventory every `.rs` file under `<shim_dir>/src`.
pub fn inventory_shim(shim_dir: &Path) -> io::Result<Vec<PubItem>> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
        let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                walk(&path, out)?;
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(&shim_dir.join("src"), &mut files)?;
    let mut items = Vec::new();
    for file in files {
        items.extend(scan_pub_items(&fs::read_to_string(file)?));
    }
    items.sort();
    items.dedup();
    Ok(items)
}

/// Render the MANIFEST file for a shim.
pub fn manifest_content(shim_name: &str, items: &[PubItem]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# Public API inventory of the `{shim_name}` vendor shim.\n\
         # Checked by holistix-lint's vendor-drift rule: every `pub` item the shim\n\
         # exposes must be listed here, so the shim's surface stays a reviewed subset\n\
         # of the real crate's and the offline→crates.io swap cannot break silently.\n\
         # Regenerate: cargo run -p holistix-lint --release -- inventory vendor/{shim_name}\n"
    ));
    for item in items {
        out.push_str(&item.manifest_line());
        out.push('\n');
    }
    out
}

/// Parse a MANIFEST's inventory lines (ignoring comments and blanks).
fn manifest_entries(content: &str) -> BTreeSet<String> {
    content
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Locate the shim a source file belongs to: `…/vendor/<shim>/src/….rs`.
/// Returns the shim's directory path relative to the analysis root.
fn shim_of(rel_path: &str) -> Option<String> {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let vendor_at = parts.iter().position(|p| *p == "vendor")?;
    parts.get(vendor_at + 1)?;
    if parts.get(vendor_at + 2) != Some(&"src") {
        return None;
    }
    Some(parts[..=vendor_at + 1].join("/"))
}

pub fn check_file(ctx: &FileCtx<'_>, config: &Config, out: &mut Vec<Finding>) {
    let Some(shim_rel) = shim_of(ctx.rel_path) else {
        return;
    };
    let shim_name = shim_rel.rsplit('/').next().unwrap_or(&shim_rel);
    let manifest_path = config.root.join(&shim_rel).join("MANIFEST");
    let manifest = match fs::read_to_string(&manifest_path) {
        Ok(content) => manifest_entries(&content),
        Err(_) => {
            out.push(Finding {
                path: ctx.rel_path.to_string(),
                line: 1,
                rule: NAME,
                message: format!(
                    "vendor shim `{shim_name}` has no MANIFEST — run `cargo run -p \
                     holistix-lint --release -- inventory {shim_rel}` and commit it"
                ),
            });
            return;
        }
    };
    for item in scan_pub_items_toks(ctx.toks) {
        let entry = item.manifest_line();
        if !manifest.contains(&entry) {
            out.push(Finding {
                path: ctx.rel_path.to_string(),
                line: item.line,
                rule: NAME,
                message: format!(
                    "pub item `{entry}` is not in {shim_rel}/MANIFEST — shims must not \
                     grow APIs the real crate lacks; if intentional, regenerate the \
                     manifest and justify it in review"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_nested_modules_impls_and_traits() {
        let src = r#"
pub mod thread {
    pub struct Scope<'a> {
        inner: &'a u32,
    }
    impl<'a> Scope<'a> {
        pub fn spawn(&self) -> u32 {
            let helper = 1; // locals are not items
            helper
        }
        fn private_helper(&self) {}
    }
    pub fn scope() -> u32 {
        0
    }
}
pub trait Sampler {
    fn sample(&self) -> f64;
}
mod private {
    pub fn hidden() {}
}
#[macro_export]
macro_rules! shim_assert {
    () => {};
}
"#;
        let lines: Vec<String> = scan_pub_items(src)
            .iter()
            .map(|i| i.manifest_line())
            .collect();
        assert!(lines.contains(&"mod thread".to_string()));
        assert!(lines.contains(&"struct thread::Scope".to_string()));
        assert!(lines.contains(&"fn thread::Scope::spawn".to_string()));
        assert!(lines.contains(&"fn thread::scope".to_string()));
        assert!(lines.contains(&"trait Sampler".to_string()));
        assert!(lines.contains(&"fn Sampler::sample".to_string()));
        assert!(lines.contains(&"macro shim_assert".to_string()));
        assert!(!lines.iter().any(|l| l.contains("private_helper")));
        assert!(!lines.iter().any(|l| l.contains("hidden")));
        assert!(!lines.iter().any(|l| l.contains("helper")));
    }

    #[test]
    fn trait_impl_methods_are_not_separate_api() {
        let src = r#"
pub struct Value;
pub trait Serialize {
    fn serialize(&self) -> String;
}
impl Serialize for Value {
    fn serialize(&self) -> String {
        String::new()
    }
}
"#;
        let lines: Vec<String> = scan_pub_items(src)
            .iter()
            .map(|i| i.manifest_line())
            .collect();
        // Trait-impl methods are not independent API (the trait already
        // lists them); only `pub fn` in inherent impls and trait decls count.
        assert!(lines.contains(&"fn Serialize::serialize".to_string()));
        assert!(!lines.contains(&"fn Value::serialize".to_string()));
    }

    #[test]
    fn pub_crate_and_use_handling() {
        let src = r#"
pub(crate) fn internal() {}
pub use inner::{A, B as Bee};
pub const LIMIT: usize = 4;
"#;
        let lines: Vec<String> = scan_pub_items(src)
            .iter()
            .map(|i| i.manifest_line())
            .collect();
        assert!(!lines.iter().any(|l| l.contains("internal")));
        assert!(lines.contains(&"use A".to_string()));
        assert!(lines.contains(&"use Bee".to_string()));
        assert!(lines.contains(&"const LIMIT".to_string()));
    }
}
