//! Offline stand-in for `serde`.
//!
//! The build environment cannot reach crates.io, so the workspace vendors a
//! minimal serialization framework under the `serde` name. Unlike real
//! serde's visitor architecture, the two directions use two small models:
//!
//! * [`Serialize`] converts a value to a self-describing [`Value`] tree,
//!   which `serde_json` (also vendored) renders as JSON;
//! * [`Deserialize`] pulls tokens straight from JSON text through a
//!   [`de::Reader`] and builds the typed value with no tree in between.
//!
//! The derive macros live in the vendored `serde_derive` proc-macro crate
//! and generate impls of both traits, using real serde's external enum
//! tagging so existing JSON fixtures remain readable.

pub use serde_derive::{Deserialize, Serialize};

pub mod de;

use de::Reader;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// A self-describing tree of serialized data: what [`Serialize`] produces,
/// and what a JSON text reads as when its shape is not known in advance.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON booleans.
    Bool(bool),
    /// Non-negative integers.
    U64(u64),
    /// Negative integers.
    I64(i64),
    /// Floating-point numbers, including `-0`.
    F64(f64),
    /// Strings.
    Str(String),
    /// Arrays.
    Array(Vec<Value>),
    /// Objects, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(pub String);

impl DeError {
    /// Builds an error from any displayable message.
    pub fn custom(msg: impl std::fmt::Display) -> Self {
        DeError(msg.to_string())
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Conversion into the shim's data model.
pub trait Serialize {
    /// Converts `self` to a [`Value`] tree.
    fn to_value(&self) -> Value;
}

/// Reading a value from JSON text.
pub trait Deserialize: Sized {
    /// Reads one value from `r`, consuming exactly its text.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or when the text does not have `Self`'s
    /// shape.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError>;

    /// The value a struct field of this type takes when its key is absent;
    /// `None`, the default, makes the field required. `Option` fields read
    /// as `None`.
    fn absent() -> Option<Self> {
        None
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

fn int_in_range<T: TryFrom<i128>>(r: &mut Reader<'_>, ty: &str) -> Result<T, DeError> {
    let n = r.int()?;
    T::try_from(n).map_err(|_| r.error(format_args!("integer {n} out of range for {ty}")))
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
                int_in_range(r, stringify!($t))
            }
        }
    )*};
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                if *self >= 0 {
                    Value::U64(*self as u64)
                } else {
                    Value::I64(*self as i64)
                }
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
                int_in_range(r, stringify!($t))
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64, usize);
impl_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.f64()
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.f64().map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.bool()
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.str().map(String::from)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let s = r.str()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(r.error(format_args!("expected single-char string, found {s:?}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Container impls
// ---------------------------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        if r.null()? {
            Ok(None)
        } else {
            T::deserialize(r).map(Some)
        }
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.begin_array()?;
        let mut items = Vec::new();
        while r.next_elem()? {
            let idx = items.len();
            items.push(T::deserialize(r).map_err(|e| e.within(format_args!("element {idx}")))?);
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for VecDeque<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        Vec::<T>::deserialize(r).map(VecDeque::from)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let items = Vec::<T>::deserialize(r)?;
        let len = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| r.error(format_args!("expected array of length {N}, found {len}")))
    }
}

macro_rules! impl_tuple {
    ($(($len:literal: $($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
                r.begin_array()?;
                let tuple = ($(de::elem::<$name>(r, $idx)?,)+);
                r.end_tuple($len)?;
                Ok(tuple)
            }
        }
    )*};
}

impl_tuple! {
    (1: A.0)
    (2: A.0, B.1)
    (3: A.0, B.1, C.2)
    (4: A.0, B.1, C.2, D.3)
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        Value::Array(
            self.iter()
                .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl<K, V> Deserialize for HashMap<K, V>
where
    K: Deserialize + std::hash::Hash + Eq,
    V: Deserialize,
{
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        Vec::<(K, V)>::deserialize(r).map(|pairs| pairs.into_iter().collect())
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Array(
            self.iter()
                .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl<K, V> Deserialize for BTreeMap<K, V>
where
    K: Deserialize + Ord,
    V: Deserialize,
{
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        Vec::<(K, V)>::deserialize(r).map(|pairs| pairs.into_iter().collect())
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

/// Reads any JSON value. Integers read as `U64` or `I64` when they fit;
/// every other number, `-0` included, reads as `F64`.
impl Deserialize for Value {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        Ok(match r.peek()? {
            b'[' => {
                r.begin_array()?;
                let mut items = Vec::new();
                while r.next_elem()? {
                    items.push(Value::deserialize(r)?);
                }
                Value::Array(items)
            }
            b'{' => {
                r.begin_object()?;
                let mut entries = Vec::new();
                while let Some(key) = r.next_key()? {
                    entries.push((key.into_owned(), Value::deserialize(r)?));
                }
                Value::Object(entries)
            }
            b'"' => Value::Str(r.str()?.into_owned()),
            b't' | b'f' => Value::Bool(r.bool()?),
            b'n' => {
                r.null()?;
                Value::Null
            }
            _ => {
                let text = r.number()?;
                let integral = !text.contains(['.', 'e', 'E']);
                match (text.parse::<u64>(), text.parse::<i64>()) {
                    (Ok(n), _) if integral => Value::U64(n),
                    (_, Ok(n)) if integral && n != 0 => Value::I64(n),
                    _ => Value::F64(r.parse_f64(text)?),
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read<T: Deserialize>(text: &str) -> Result<T, DeError> {
        let mut r = Reader::new(text);
        let v = T::deserialize(&mut r)?;
        r.end()?;
        Ok(v)
    }

    #[test]
    fn numeric_cross_decoding() {
        // A float that printed as an integer must still decode as f64.
        assert_eq!(read::<f64>("900000").unwrap(), 9e5);
        assert_eq!(read::<u32>("12.0").unwrap(), 12);
        assert!(read::<u32>("12.5").is_err());
        assert!(read::<u32>("-1").is_err());
        assert!(read::<u64>("18446744073709551616").is_err());
        assert_eq!(read::<f64>("18446744073709551616").unwrap(), 2f64.powi(64));
    }

    #[test]
    fn option_reads_null_and_is_absent_as_none() {
        assert_eq!(read::<Option<u32>>("null").unwrap(), None);
        assert_eq!(read::<Option<u32>>("3").unwrap(), Some(3));
        assert_eq!(de::required::<Option<u32>>(None, "absent").unwrap(), None);
        assert!(de::required::<u32>(None, "absent").is_err());
    }

    #[test]
    fn containers_round_trip() {
        assert_eq!(read::<Vec<(u32, f64)>>("[[1, 2.5], [3, 4.5]]").unwrap(), [(1, 2.5), (3, 4.5)]);
        assert_eq!(read::<[u32; 3]>("[7,8,9]").unwrap(), [7, 8, 9]);
        assert!(read::<[u32; 2]>("[7,8,9]").is_err());
        assert!(read::<(u32, u32)>("[7,8,9]").is_err());
        assert!(read::<(u32, u32)>("[7]").is_err());
        assert!(read::<Vec<u32>>("[1,]").is_err());
        assert!(read::<Vec<u32>>("[,1]").is_err());
        assert!(read::<Vec<u32>>("[1 2]").is_err());
    }

    #[test]
    fn value_reads_negative_zero_as_a_float() {
        assert_eq!(read::<Value>("-0").unwrap(), Value::F64(-0.0));
        assert!(matches!(read::<Value>("-0").unwrap(), Value::F64(z) if z.is_sign_negative()));
        assert_eq!(read::<Value>("0").unwrap(), Value::U64(0));
        assert_eq!(read::<Value>("-7").unwrap(), Value::I64(-7));
        assert_eq!(read::<Value>("1e2").unwrap(), Value::F64(100.0));
        assert!(read::<Value>("1e309").is_err());
    }
}
