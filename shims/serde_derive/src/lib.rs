//! Offline shim of serde's derive macros.
//!
//! Parses the item definition directly from the [`proc_macro::TokenStream`]
//! (the build is fully offline, so `syn`/`quote` are unavailable) and
//! generates impls of the shim `serde::Serialize` / `serde::Deserialize`
//! traits: straight-line calls that write JSON into a `serde::Writer`, and
//! a key-matching loop that reads from a `serde::Reader` into one
//! `Option` slot per field. Supported shapes — exactly what this
//! workspace contains:
//!
//! * structs with named fields (`#[serde(skip)]` honoured);
//! * tuple structs (single-field newtypes are transparent, as in serde);
//! * `#[serde(transparent)]` (same behaviour as a newtype);
//! * enums with unit, newtype, tuple, and struct variants, using serde's
//!   externally-tagged JSON representation.
//!
//! Generic types and other `#[serde(...)]` attributes are rejected with a
//! compile error rather than silently mis-serialized.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug, Clone)]
struct Field {
    name: String, // field name, or tuple index as a string
    skip: bool,
}

#[derive(Debug, Clone)]
enum Shape {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
}

#[derive(Debug, Clone)]
struct Variant {
    name: String,
    shape: Shape,
}

#[derive(Debug)]
enum Item {
    Struct {
        name: String,
        transparent: bool,
        shape: Shape,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

fn error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

/// Collects `transparent` / `skip` flags from a `#[serde(...)]` attribute
/// body; any other serde attribute is unsupported.
fn scan_serde_attr(
    body: TokenStream,
    transparent: &mut bool,
    skip: &mut bool,
) -> Result<(), String> {
    for tt in body {
        match tt {
            TokenTree::Ident(id) if id.to_string() == "transparent" => *transparent = true,
            TokenTree::Ident(id) if id.to_string() == "skip" => *skip = true,
            TokenTree::Punct(_) => {}
            other => return Err(format!("unsupported #[serde(...)] attribute: {other}")),
        }
    }
    Ok(())
}

/// Consumes leading attributes at `*i`, returning (transparent, skip) flags
/// found in `#[serde(...)]` among them.
fn skip_attrs(tokens: &[TokenTree], i: &mut usize) -> Result<(bool, bool), String> {
    let mut transparent = false;
    let mut skip = false;
    while *i + 1 < tokens.len() {
        let TokenTree::Punct(p) = &tokens[*i] else {
            break;
        };
        if p.as_char() != '#' {
            break;
        }
        let TokenTree::Group(g) = &tokens[*i + 1] else {
            break;
        };
        if g.delimiter() != Delimiter::Bracket {
            break;
        }
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        if let Some(TokenTree::Ident(id)) = inner.first() {
            if id.to_string() == "serde" {
                if let Some(TokenTree::Group(body)) = inner.get(1) {
                    scan_serde_attr(body.stream(), &mut transparent, &mut skip)?;
                }
            }
        }
        *i += 2;
    }
    Ok((transparent, skip))
}

/// Skips a `pub` / `pub(...)` visibility marker.
fn skip_vis(tokens: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = tokens.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

/// Splits a brace/paren group body on top-level commas. Angle brackets
/// are bare puncts in a token stream (not nested groups), so commas
/// inside generic arguments like `HashMap<K, V>` must be tracked by
/// `<`/`>` depth and left alone.
fn split_commas(ts: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut out: Vec<Vec<TokenTree>> = vec![Vec::new()];
    let mut angle_depth = 0usize;
    for tt in ts {
        match &tt {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                angle_depth += 1;
                out.last_mut().unwrap().push(tt);
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle_depth = angle_depth.saturating_sub(1);
                out.last_mut().unwrap().push(tt);
            }
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => out.push(Vec::new()),
            _ => out.last_mut().unwrap().push(tt),
        }
    }
    if out.last().is_some_and(Vec::is_empty) {
        out.pop();
    }
    out
}

fn parse_named_fields(body: TokenStream) -> Result<Vec<Field>, String> {
    let mut fields = Vec::new();
    for chunk in split_commas(body) {
        let mut i = 0;
        let (_, skip) = skip_attrs(&chunk, &mut i)?;
        skip_vis(&chunk, &mut i);
        let Some(TokenTree::Ident(name)) = chunk.get(i) else {
            return Err("expected field name".into());
        };
        fields.push(Field {
            name: name.to_string(),
            skip,
        });
    }
    Ok(fields)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let (mut transparent, _) = skip_attrs(&tokens, &mut i)?;
    skip_vis(&tokens, &mut i);
    // Attributes can also appear between visibility and the keyword.
    let (t2, _) = skip_attrs(&tokens, &mut i)?;
    transparent |= t2;

    let Some(TokenTree::Ident(kw)) = tokens.get(i) else {
        return Err("expected `struct` or `enum`".into());
    };
    let kw = kw.to_string();
    i += 1;
    let Some(TokenTree::Ident(name)) = tokens.get(i) else {
        return Err("expected type name".into());
    };
    let name = name.to_string();
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            return Err(format!(
                "generic type {name} is not supported by the serde shim"
            ));
        }
    }

    match kw.as_str() {
        "struct" => {
            let shape = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Shape::Named(parse_named_fields(g.stream())?)
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Shape::Tuple(split_commas(g.stream()).len())
                }
                _ => Shape::Unit,
            };
            Ok(Item::Struct {
                name,
                transparent,
                shape,
            })
        }
        "enum" => {
            let Some(TokenTree::Group(g)) = tokens.get(i) else {
                return Err("expected enum body".into());
            };
            let mut variants = Vec::new();
            for chunk in split_commas(g.stream()) {
                let mut vi = 0;
                skip_attrs(&chunk, &mut vi)?;
                let Some(TokenTree::Ident(vname)) = chunk.get(vi) else {
                    return Err("expected variant name".into());
                };
                let shape = match chunk.get(vi + 1) {
                    Some(TokenTree::Group(vg)) if vg.delimiter() == Delimiter::Brace => {
                        Shape::Named(parse_named_fields(vg.stream())?)
                    }
                    Some(TokenTree::Group(vg)) if vg.delimiter() == Delimiter::Parenthesis => {
                        Shape::Tuple(split_commas(vg.stream()).len())
                    }
                    _ => Shape::Unit,
                };
                variants.push(Variant {
                    name: vname.to_string(),
                    shape,
                });
            }
            Ok(Item::Enum { name, variants })
        }
        other => Err(format!("cannot derive serde traits for `{other}` items")),
    }
}

// ---------------------------------------------------------------- Serialize

/// A Rust string literal holding a field's JSON key and colon, `"name":`.
/// Field names are identifiers, so they need no JSON escaping.
fn json_key(name: &str) -> String {
    format!("{:?}", format!("\"{name}\":"))
}

/// Statements writing `{"k": v, ...}` for the live fields; `access` maps a
/// field name to an expression of reference type.
fn ser_fields(live: &[&Field], access: impl Fn(&str) -> String) -> String {
    let mut s = String::from("__w.begin_object();\n");
    for (i, f) in live.iter().enumerate() {
        s.push_str(&format!(
            "__w.field({first}, {key});\n::serde::Serialize::serialize({v}, __w);\n",
            first = i == 0,
            key = json_key(&f.name),
            v = access(&f.name),
        ));
    }
    s.push_str(&format!("__w.end_object({});\n", live.is_empty()));
    s
}

/// Statements writing `[a, b, ...]`.
fn ser_elements(items: &[String]) -> String {
    let mut s = String::from("__w.begin_array();\n");
    for (i, item) in items.iter().enumerate() {
        s.push_str(&format!(
            "__w.element({first});\n::serde::Serialize::serialize({item}, __w);\n",
            first = i == 0
        ));
    }
    s.push_str(&format!("__w.end_array({});\n", items.is_empty()));
    s
}

fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct {
            name,
            transparent,
            shape,
        } => {
            let body = match shape {
                Shape::Named(fields) => {
                    let live: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
                    if *transparent && live.len() == 1 {
                        format!(
                            "::serde::Serialize::serialize(&self.{}, __w);",
                            live[0].name
                        )
                    } else {
                        ser_fields(&live, |n| format!("&self.{n}"))
                    }
                }
                Shape::Tuple(1) => "::serde::Serialize::serialize(&self.0, __w);".into(),
                Shape::Tuple(n) => {
                    let items: Vec<String> = (0..*n).map(|k| format!("&self.{k}")).collect();
                    ser_elements(&items)
                }
                Shape::Unit => "__w.null();".into(),
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                let (pattern, inner) = match &v.shape {
                    Shape::Unit => {
                        arms.push_str(&format!("{name}::{vn} => __w.str({vn:?}),\n"));
                        continue;
                    }
                    Shape::Tuple(1) => (
                        format!("{name}::{vn}(__f0)"),
                        "::serde::Serialize::serialize(__f0, __w);\n".to_string(),
                    ),
                    Shape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                        (
                            format!("{name}::{vn}({})", binds.join(", ")),
                            ser_elements(&binds),
                        )
                    }
                    Shape::Named(fields) => {
                        let live: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
                        let mut binds: Vec<&str> = live.iter().map(|f| f.name.as_str()).collect();
                        binds.push("..");
                        (
                            format!("{name}::{vn} {{ {} }}", binds.join(", ")),
                            ser_fields(&live, str::to_string),
                        )
                    }
                };
                arms.push_str(&format!(
                    "{pattern} => {{\n__w.begin_object();\n__w.key(true, {vn:?});\n{inner}__w.end_object(false);\n}}\n"
                ));
            }
            (name, format!("match self {{\n{arms}}}"))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\nfn serialize(&self, __w: &mut ::serde::Writer) {{\n{body}\n}}\n}}"
    )
}

// -------------------------------------------------------------- Deserialize

/// A block expression reading an object into `ctor { fields }`. Keys are
/// matched by `Reader::next_field` (in-order input costs one byte
/// comparison per key), unknown keys are skipped, a repeated key
/// overwrites, and an absent key defers to `Deserialize::missing_field`.
fn de_fields(fields: &[Field], ctor: &str, what: &str) -> String {
    let live: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
    let names: Vec<String> = live.iter().map(|f| json_key(&f.name)).collect();
    let mut s = String::from("{\n");
    for f in &live {
        s.push_str(&format!(
            "let mut __v_{} = ::core::option::Option::None;\n",
            f.name
        ));
    }
    s.push_str(&format!(
        "let mut __next = 0;\n__r.begin_object({what:?})?;\nwhile let ::core::option::Option::Some(__i) = __r.next_field(&[{}], &mut __next)? {{\nmatch __i {{\n",
        names.join(", ")
    ));
    for (i, f) in live.iter().enumerate() {
        s.push_str(&format!(
            "{i} => ::serde::__private::field(&mut __v_{n}, __r)?,\n",
            n = f.name
        ));
    }
    s.push_str(&format!("_ => __r.skip_value()?,\n}}\n}}\n{ctor} {{\n"));
    for f in fields {
        if f.skip {
            s.push_str(&format!(
                "{}: ::core::default::Default::default(),\n",
                f.name
            ));
        } else {
            s.push_str(&format!(
                "{n}: ::serde::__private::take(__v_{n}, {n:?})?,\n",
                n = f.name
            ));
        }
    }
    s.push_str("}\n}");
    s
}

/// A block expression reading an exactly-`n`-element array into
/// `ctor(..)`.
fn de_elements(n: usize, ctor: &str, what: &str) -> String {
    let items: Vec<String> = (0..n)
        .map(|_| {
            format!(
                "{{ ::serde::__private::element(__r, {n}, {what:?})?; ::serde::Deserialize::deserialize(__r)? }}"
            )
        })
        .collect();
    format!(
        "{{\n__r.begin_array({what:?})?;\nlet __v = {ctor}({});\n::serde::__private::end_tuple(__r, {n}, {what:?})?;\n__v\n}}",
        items.join(", ")
    )
}

fn gen_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct {
            name,
            transparent,
            shape,
        } => {
            let body = match shape {
                Shape::Named(fields) => {
                    let live: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
                    if *transparent && live.len() == 1 {
                        let mut inits = String::new();
                        for f in fields {
                            let init = if f.skip {
                                "::core::default::Default::default()"
                            } else {
                                "::serde::Deserialize::deserialize(__r)?"
                            };
                            inits.push_str(&format!("{}: {init},\n", f.name));
                        }
                        format!("::core::result::Result::Ok({name} {{\n{inits}}})")
                    } else {
                        format!(
                            "::core::result::Result::Ok({})",
                            de_fields(fields, name, name)
                        )
                    }
                }
                Shape::Tuple(1) => format!(
                    "::core::result::Result::Ok({name}(::serde::Deserialize::deserialize(__r)?))"
                ),
                Shape::Tuple(n) => format!(
                    "::core::result::Result::Ok({})",
                    de_elements(*n, name, name)
                ),
                Shape::Unit => format!("__r.skip_value()?;\n::core::result::Result::Ok({name})"),
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in variants {
                let vn = &v.name;
                let ctor = format!("{name}::{vn}");
                match &v.shape {
                    Shape::Unit => unit_arms
                        .push_str(&format!("{vn:?} => ::core::result::Result::Ok({ctor}),\n")),
                    Shape::Tuple(1) => data_arms.push_str(&format!(
                        "{vn:?} => {ctor}(::serde::Deserialize::deserialize(__r)?),\n"
                    )),
                    Shape::Tuple(n) => {
                        data_arms.push_str(&format!("{vn:?} => {},\n", de_elements(*n, &ctor, vn)))
                    }
                    Shape::Named(fields) => data_arms
                        .push_str(&format!("{vn:?} => {},\n", de_fields(fields, &ctor, vn))),
                }
            }
            let unknown = format!("::serde::DeError::unknown_variant(__other, {name:?})");
            let shape_err = format!(
                "::serde::DeError::expected(\"variant string or single-key object\", {name:?})"
            );
            // A unit variant is a string; a data variant is an object with
            // exactly one key. Arms that cannot match are left out rather
            // than generated unreachable.
            let string_arm = format!(
                "::core::option::Option::Some(b'\"') => {{\nlet __s = __r.str()?;\nmatch &*__s {{\n{unit_arms}__other => ::core::result::Result::Err({unknown}),\n}}\n}}\n"
            );
            let object_arm = if data_arms.is_empty() {
                String::new()
            } else {
                format!(
                    "::core::option::Option::Some(b'{{') => {{\n__r.begin_object({name:?})?;\nlet ::core::option::Option::Some(__k) = __r.next_key()? else {{\nreturn ::core::result::Result::Err({shape_err});\n}};\nlet __v = match &*__k {{\n{data_arms}__other => return ::core::result::Result::Err({unknown}),\n}};\nif __r.next_key()?.is_some() {{\nreturn ::core::result::Result::Err({shape_err});\n}}\n::core::result::Result::Ok(__v)\n}}\n"
                )
            };
            (
                name,
                format!(
                    "match __r.peek() {{\n{string_arm}{object_arm}_ => ::core::result::Result::Err({shape_err}),\n}}"
                ),
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\nfn deserialize(__r: &mut ::serde::Reader<'_>) -> ::core::result::Result<Self, ::serde::DeError> {{\n{body}\n}}\n}}"
    )
}

/// Derives the shim `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_serialize(&item).parse().unwrap(),
        Err(e) => error(&e),
    }
}

/// Derives the shim `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_deserialize(&item).parse().unwrap(),
        Err(e) => error(&e),
    }
}
