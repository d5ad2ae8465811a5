//! A tiny JSON value model and serializer.
//!
//! The build environment is fully offline, so `serde`/`serde_json` are not
//! available; experiment artifacts only need one-way serialization of plain
//! result structs, which this module covers in ~150 lines. Structs opt in
//! with the [`impl_to_json!`](crate::impl_to_json) field-listing macro.

use std::fmt::Write as _;

use flashmark_registry::json_string;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number (non-finite floats serialize as `null`).
    Num(f64),
    /// An integer kept exact (u64 range).
    UInt(u64),
    /// A signed integer kept exact (i64 range).
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Pretty-prints with two-space indentation (the `serde_json` style the
    /// result artifacts were originally written in).
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Num(x) => {
                if x.is_finite() {
                    // Keep integral floats readable (`1.0` not `1`), like
                    // serde_json does for f64.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        let _ = write!(out, "{x:.1}");
                    } else {
                        let _ = write!(out, "{x}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Self::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Self::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Self::Str(s) => out.push_str(&json_string(s)),
            Self::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Self::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    out.push_str(&json_string(k));
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Conversion into a [`Json`] value (the serialization half of `Serialize`).
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

macro_rules! to_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::UInt(*self as u64)
            }
        }
    )*};
}
to_json_uint!(u8, u16, u32, u64, usize);

macro_rules! to_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
    )*};
}
to_json_int!(i8, i16, i32, i64, isize);

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson, D: ToJson> ToJson for (A, B, C, D) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![
            self.0.to_json(),
            self.1.to_json(),
            self.2.to_json(),
            self.3.to_json(),
        ])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson, D: ToJson, E: ToJson> ToJson for (A, B, C, D, E) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![
            self.0.to_json(),
            self.1.to_json(),
            self.2.to_json(),
            self.3.to_json(),
            self.4.to_json(),
        ])
    }
}

/// Implements [`ToJson`] for a struct by listing its fields, keeping the
/// result-struct definitions as close to the old `#[derive(Serialize)]`
/// form as possible:
///
/// ```ignore
/// impl_to_json!(Fig05Data { t_pew_us, distinguishable, total });
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $( (stringify!($field).to_string(), $crate::json::ToJson::to_json(&self.$field)) ),*
                ])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_nesting() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("a\"b\\c\n".into())),
            (
                "xs".into(),
                Json::Arr(vec![Json::UInt(1), Json::Num(2.5), Json::Null]),
            ),
        ]);
        let s = v.pretty();
        assert!(s.contains("\\\"b\\\\c\\n"));
        assert!(s.contains("2.5"));
        assert!(s.contains("null"));
    }

    #[test]
    fn integral_floats_keep_a_decimal() {
        assert_eq!(Json::Num(3.0).pretty(), "3.0");
        assert_eq!(Json::Num(f64::NAN).pretty(), "null");
    }

    #[test]
    fn signed_integers_stay_exact() {
        assert_eq!((-3i64).to_json().pretty(), "-3");
        assert_eq!(7i32.to_json().pretty(), "7");
    }

    struct Demo {
        a: u32,
        b: Vec<(f64, usize)>,
        c: Option<f64>,
    }
    impl_to_json!(Demo { a, b, c });

    #[test]
    fn derive_macro_lists_fields_in_order() {
        let d = Demo {
            a: 7,
            b: vec![(1.5, 2)],
            c: None,
        };
        let s = d.to_json().pretty();
        let (ia, ib, ic) = (
            s.find("\"a\"").unwrap(),
            s.find("\"b\"").unwrap(),
            s.find("\"c\"").unwrap(),
        );
        assert!(ia < ib && ib < ic, "{s}");
        assert!(s.contains("\"c\": null"));
    }
}
