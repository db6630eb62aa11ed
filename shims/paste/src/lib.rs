//! Offline shim for the `paste` crate (see `shims/README.md`).
//!
//! Provides [`paste!`](macro@paste) with upstream's basic form only: inside its input,
//! every `[< ... >]` segment becomes one identifier, the concatenation of the segment's
//! identifiers (`_` included).  Literals and case modifiers (`:lower`, …) are not
//! implemented.

use proc_macro::{Delimiter, Group, Ident, Span, TokenStream, TokenTree};

/// Replaces every `[< ... >]` segment of the input with the identifier its tokens
/// concatenate to, e.g. `fn [<bst_ $id>]()` with `$id = debra` becomes `fn bst_debra()`.
///
/// # Panics
///
/// Panics (a compile error at the call site) if a segment holds something other than
/// identifiers, or concatenates to an invalid identifier.
#[proc_macro]
pub fn paste(input: TokenStream) -> TokenStream {
    expand(input)
}

fn expand(input: TokenStream) -> TokenStream {
    input
        .into_iter()
        .map(|tree| match tree {
            TokenTree::Group(group) => match pasted(&group) {
                Some(ident) => TokenTree::Ident(ident),
                None => {
                    let mut out = Group::new(group.delimiter(), expand(group.stream()));
                    out.set_span(group.span());
                    TokenTree::Group(out)
                }
            },
            other => other,
        })
        .collect()
}

/// The identifier a `[< ... >]` group concatenates to, or `None` for any other group.
fn pasted(group: &Group) -> Option<Ident> {
    if group.delimiter() != Delimiter::Bracket {
        return None;
    }
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let is_punct = |tree: Option<&TokenTree>, ch: char| matches!(tree, Some(TokenTree::Punct(p)) if p.as_char() == ch);
    if tokens.len() < 2 || !is_punct(tokens.first(), '<') || !is_punct(tokens.last(), '>') {
        return None;
    }
    let mut name = String::new();
    let mut span = None;
    for tree in &tokens[1..tokens.len() - 1] {
        let TokenTree::Ident(ident) = tree else {
            panic!("paste: expected an identifier inside [< ... >], found `{tree}`");
        };
        // The first identifier's span: the result resolves where that one was written.
        span.get_or_insert(ident.span());
        name.push_str(&ident.to_string());
    }
    Some(Ident::new(&name, span.unwrap_or_else(Span::call_site)))
}
