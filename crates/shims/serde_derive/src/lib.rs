//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` for the
//! vendored `serde` shim without depending on `syn`/`quote` (unavailable in
//! this offline build environment). `Serialize` impls build a
//! `serde::Value`; `Deserialize` impls pull tokens from a
//! `serde::de::Reader` and build the type directly. The input item is
//! parsed with a small hand-rolled token walker that extracts exactly what
//! code generation needs: field *names* for named structs, field *counts*
//! for tuple structs, and the variant list for enums. Field types are never inspected — the
//! generated code lets Rust's type inference pick the right
//! `serde::Deserialize` impl per field.
//!
//! Supported shapes (everything this workspace derives):
//! * structs with named fields, honoring `#[serde(default)]` on a field
//!   (an absent key deserializes to `Default::default()`); unknown keys
//!   are skipped and a repeated key is an error,
//! * tuple structs (single-field ones delegate to the inner value, matching
//!   both real serde's newtype behavior and `#[serde(transparent)]`),
//! * unit structs,
//! * enums with unit, newtype, tuple, and struct variants, encoded with
//!   real serde's external tagging.
//!
//! Generic types and other serde attributes are rejected with a compile
//! error naming the construct.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// What the item parser extracts.
enum Shape {
    NamedStruct { name: String, fields: Vec<Field> },
    TupleStruct { name: String, arity: usize },
    UnitStruct { name: String },
    Enum { name: String, variants: Vec<Variant> },
}

/// A named field and whether it carried `#[serde(default)]`.
struct Field {
    name: String,
    default: bool,
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

/// Entry point for `#[derive(Serialize)]`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

/// Entry point for `#[derive(Deserialize)]`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, gen: fn(&Shape) -> String) -> TokenStream {
    match parse_item(input) {
        Ok(shape) => gen(&shape).parse().expect("generated impl parses"),
        Err(msg) => format!("::core::compile_error!({msg:?});").parse().expect("error parses"),
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<Shape, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;
    skip_attributes(&tokens, &mut pos);
    skip_visibility(&tokens, &mut pos);

    let keyword = match tokens.get(pos) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, found {other:?}")),
    };
    pos += 1;
    let name = match tokens.get(pos) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected item name, found {other:?}")),
    };
    pos += 1;

    if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!("serde shim derive: generic type `{name}` is not supported"));
    }

    match keyword.as_str() {
        "struct" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Shape::NamedStruct {
                name,
                fields: parse_named_fields(g.stream())?,
            }),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Ok(Shape::TupleStruct { name, arity: count_tuple_fields(g.stream()) })
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Ok(Shape::UnitStruct { name }),
            other => Err(format!("unsupported struct body for `{name}`: {other:?}")),
        },
        "enum" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Shape::Enum {
                name,
                variants: parse_variants(g.stream())?,
            }),
            other => Err(format!("unsupported enum body for `{name}`: {other:?}")),
        },
        other => Err(format!("serde shim derive supports struct/enum, found `{other}`")),
    }
}

/// Skips `#[...]` outer attributes (doc comments arrive in this form too).
fn skip_attributes(tokens: &[TokenTree], pos: &mut usize) {
    consume_attributes(tokens, pos);
}

/// Skips `#[...]` outer attributes, reporting whether any of them was
/// `#[serde(default)]` (possibly alongside other idents in the list).
fn consume_attributes(tokens: &[TokenTree], pos: &mut usize) -> bool {
    let mut default = false;
    while matches!(tokens.get(*pos), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        *pos += 1; // '#'
        if let Some(TokenTree::Group(g)) = tokens.get(*pos) {
            if g.delimiter() == Delimiter::Bracket {
                default |= is_serde_default(g.stream());
                *pos += 1;
            }
        }
    }
    default
}

/// Whether an attribute body (the tokens inside `#[...]`) is
/// `serde(... default ...)`.
fn is_serde_default(stream: TokenStream) -> bool {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    match (tokens.first(), tokens.get(1)) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(g)))
            if id.to_string() == "serde" && g.delimiter() == Delimiter::Parenthesis =>
        {
            g.stream()
                .into_iter()
                .any(|t| matches!(t, TokenTree::Ident(ref i) if i.to_string() == "default"))
        }
        _ => false,
    }
}

/// Skips `pub`, `pub(crate)`, `pub(in ...)`.
fn skip_visibility(tokens: &[TokenTree], pos: &mut usize) {
    if matches!(tokens.get(*pos), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *pos += 1;
        if matches!(tokens.get(*pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *pos += 1;
        }
    }
}

/// Skips a type (or any token run) up to a top-level `,`, tracking `<...>`
/// nesting so commas inside generic arguments don't terminate early.
/// Leaves `pos` on the comma (or at end).
fn skip_to_top_level_comma(tokens: &[TokenTree], pos: &mut usize) {
    let mut angle_depth = 0i32;
    while let Some(tok) = tokens.get(*pos) {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => return,
                _ => {}
            }
        }
        *pos += 1;
    }
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut fields = Vec::new();
    while pos < tokens.len() {
        let default = consume_attributes(&tokens, &mut pos);
        skip_visibility(&tokens, &mut pos);
        let name = match tokens.get(pos) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => return Err(format!("expected field name, found {other:?}")),
        };
        pos += 1;
        match tokens.get(pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => pos += 1,
            other => return Err(format!("expected `:` after field `{name}`, found {other:?}")),
        }
        skip_to_top_level_comma(&tokens, &mut pos);
        pos += 1; // consume the comma (or step past end)
        fields.push(Field { name, default });
    }
    Ok(fields)
}

/// Counts top-level comma-separated, non-empty chunks in a tuple body.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut count = 0;
    while pos < tokens.len() {
        let start = pos;
        skip_to_top_level_comma(&tokens, &mut pos);
        if pos > start {
            count += 1;
        }
        pos += 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut variants = Vec::new();
    while pos < tokens.len() {
        skip_attributes(&tokens, &mut pos);
        let name = match tokens.get(pos) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => return Err(format!("expected variant name, found {other:?}")),
        };
        pos += 1;
        let kind = match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                pos += 1;
                VariantKind::Struct(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                pos += 1;
                VariantKind::Tuple(count_tuple_fields(g.stream()))
            }
            _ => VariantKind::Unit,
        };
        // Step over the separating comma, if any.
        if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            pos += 1;
        }
        variants.push(Variant { name, kind });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn gen_serialize(shape: &Shape) -> String {
    match shape {
        Shape::NamedStruct { name, fields } => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    let f = &f.name;
                    format!(
                        "(::std::string::String::from({f:?}), ::serde::Serialize::to_value(&self.{f}))"
                    )
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         ::serde::Value::Object(::std::vec::Vec::from([{}]))\n\
                     }}\n\
                 }}",
                entries.join(", ")
            )
        }
        Shape::TupleStruct { name, arity: 1 } => format!(
            "impl ::serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> ::serde::Value {{\n\
                     ::serde::Serialize::to_value(&self.0)\n\
                 }}\n\
             }}"
        ),
        Shape::TupleStruct { name, arity } => {
            let elems: Vec<String> = (0..*arity)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         ::serde::Value::Array(::std::vec::Vec::from([{}]))\n\
                     }}\n\
                 }}",
                elems.join(", ")
            )
        }
        Shape::UnitStruct { name } => format!(
            "impl ::serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> ::serde::Value {{ ::serde::Value::Null }}\n\
             }}"
        ),
        Shape::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.kind {
                        VariantKind::Unit => format!(
                            "{name}::{vn} => ::serde::Value::Str(::std::string::String::from({vn:?})),"
                        ),
                        VariantKind::Tuple(1) => format!(
                            "{name}::{vn}(__f0) => ::serde::Value::Object(::std::vec::Vec::from([\
                                 (::std::string::String::from({vn:?}), ::serde::Serialize::to_value(__f0))])),"
                        ),
                        VariantKind::Tuple(arity) => {
                            let binds: Vec<String> = (0..*arity).map(|i| format!("__f{i}")).collect();
                            let elems: Vec<String> = (0..*arity)
                                .map(|i| format!("::serde::Serialize::to_value(__f{i})"))
                                .collect();
                            format!(
                                "{name}::{vn}({}) => ::serde::Value::Object(::std::vec::Vec::from([\
                                     (::std::string::String::from({vn:?}), ::serde::Value::Array(\
                                         ::std::vec::Vec::from([{}])))])),",
                                binds.join(", "),
                                elems.join(", ")
                            )
                        }
                        VariantKind::Struct(fields) => {
                            let binds =
                                fields.iter().map(|f| f.name.as_str()).collect::<Vec<_>>().join(", ");
                            let entries: Vec<String> = fields
                                .iter()
                                .map(|f| {
                                    let f = &f.name;
                                    format!(
                                        "(::std::string::String::from({f:?}), ::serde::Serialize::to_value({f}))"
                                    )
                                })
                                .collect();
                            format!(
                                "{name}::{vn} {{ {binds} }} => ::serde::Value::Object(::std::vec::Vec::from([\
                                     (::std::string::String::from({vn:?}), ::serde::Value::Object(\
                                         ::std::vec::Vec::from([{}])))])),",
                                entries.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         match self {{\n{}\n}}\n\
                     }}\n\
                 }}",
                arms.join("\n")
            )
        }
    }
}

/// A block reading a JSON object into `ctor { fields }`: keys matched as
/// slices of the input, unknown keys skipped, a repeated key refused, and
/// an absent key filled by `Default::default()` for `#[serde(default)]`
/// fields or by `Deserialize::absent` for the rest.
fn gen_object(ctor: &str, fields: &[Field]) -> String {
    let slots: String = (0..fields.len())
        .map(|i| format!("let mut __f{i} = ::std::option::Option::None;\n"))
        .collect();
    let arms: String = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let n = &f.name;
            format!("{n:?} => ::serde::de::field(__r, &mut __f{i}, {n:?})?,\n")
        })
        .collect();
    let inits: Vec<String> = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let n = &f.name;
            if f.default {
                format!("{n}: __f{i}.unwrap_or_default()")
            } else {
                format!("{n}: ::serde::de::required(__f{i}, {n:?})?")
            }
        })
        .collect();
    format!(
        "{{\n\
             {slots}\
             __r.begin_object()?;\n\
             while let ::std::option::Option::Some(__key) = __r.next_key()? {{\n\
                 match &*__key {{\n\
                     {arms}\
                     _ => __r.skip_value()?,\n\
                 }}\n\
             }}\n\
             {ctor} {{ {} }}\n\
         }}",
        inits.join(", ")
    )
}

/// A block reading a JSON array of exactly `arity` elements into
/// `ctor(elements)`.
fn gen_tuple(ctor: &str, arity: usize) -> String {
    let elems: Vec<String> =
        (0..arity).map(|i| format!("::serde::de::elem(__r, {i})?")).collect();
    format!(
        "{{\n\
             __r.begin_array()?;\n\
             let __v = {ctor}({});\n\
             __r.end_tuple({arity})?;\n\
             __v\n\
         }}",
        elems.join(", ")
    )
}

fn gen_deserialize(shape: &Shape) -> String {
    let (name, body) = match shape {
        Shape::NamedStruct { name, fields } => {
            (name, format!("::std::result::Result::Ok({})", gen_object(name, fields)))
        }
        Shape::TupleStruct { name, arity: 1 } => (
            name,
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(__r)?))"),
        ),
        Shape::TupleStruct { name, arity } => {
            (name, format!("::std::result::Result::Ok({})", gen_tuple(name, *arity)))
        }
        Shape::UnitStruct { name } => (
            name,
            format!(
                "if __r.null()? {{\n\
                     ::std::result::Result::Ok({name})\n\
                 }} else {{\n\
                     ::std::result::Result::Err(__r.unexpected(\"null\"))\n\
                 }}"
            ),
        ),
        Shape::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    let ctor = format!("{name}::{vn}");
                    match &v.kind {
                        VariantKind::Unit => format!("({vn:?}, false) => {ctor},\n"),
                        VariantKind::Tuple(1) => format!(
                            "({vn:?}, true) => {ctor}(::serde::Deserialize::deserialize(__r)?),\n"
                        ),
                        VariantKind::Tuple(arity) => {
                            format!("({vn:?}, true) => {},\n", gen_tuple(&ctor, *arity))
                        }
                        VariantKind::Struct(fields) => {
                            format!("({vn:?}, true) => {},\n", gen_object(&ctor, fields))
                        }
                    }
                })
                .collect();
            (
                name,
                format!(
                    "let (__tag, __payload) = __r.variant({name:?})?;\n\
                     let __v = match (&*__tag, __payload) {{\n\
                         {arms}\
                         _ => return ::std::result::Result::Err(\
                             __r.unknown_variant(&__tag, __payload, {name:?})),\n\
                     }};\n\
                     if __payload {{\n\
                         __r.end_variant()?;\n\
                     }}\n\
                     ::std::result::Result::Ok(__v)"
                ),
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn deserialize(__r: &mut ::serde::de::Reader<'_>) \
                 -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
}
