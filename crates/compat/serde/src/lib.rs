//! Offline stand-in for `serde`, providing the subset this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a minimal, API-compatible serialization framework: a
//! self-describing [`Value`] tree, [`Serialize`]/[`Deserialize`] traits
//! converting to and from it, and derive macros (see `serde_derive`)
//! handling named-field structs and enums. Field order is preserved, so
//! serialization is fully deterministic.
//!
//! Supported derive attributes: `#[serde(skip)]` on a named struct field
//! (omitted when serializing, `Default::default()` when deserializing).

pub use serde_derive::{Deserialize, Serialize};

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A self-describing JSON-like value tree.
///
/// Objects preserve insertion order (fields serialize in declaration
/// order), which keeps report bytes deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (used when the value exceeds `i64::MAX` or the
    /// source type is unsigned).
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Ordered array.
    Array(Vec<Value>),
    /// Ordered key-value map.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Returns the object fields if this value is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Returns the elements if this value is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a field of an object by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|fields| fields.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
    }

    /// A short description of the value's type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Error produced when a [`Value`] cannot be converted into the requested
/// type.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError {
    message: String,
}

impl DeError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> DeError {
        DeError {
            message: message.into(),
        }
    }

    /// Convenience constructor for type mismatches.
    pub fn expected(what: &str, got: &Value) -> DeError {
        DeError::new(format!("expected {what}, got {}", got.kind()))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DeError {}

/// Serialization into the [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into a [`Value`].
    fn to_value(&self) -> Value;

    /// Borrows `self` as a [`Value`] when it already is one, so writers
    /// skip the deep copy [`to_value`](Serialize::to_value) would make.
    fn to_value_cow(&self) -> Cow<'_, Value> {
        Cow::Owned(self.to_value())
    }
}

/// Deserialization out of the [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a [`Value`].
    ///
    /// # Errors
    ///
    /// Returns a [`DeError`] if the value's shape does not match.
    fn from_value(value: &Value) -> Result<Self, DeError>;

    /// Like [`from_value`](Deserialize::from_value), but consumes the
    /// tree, so a [`Value`] target takes it over without a copy.
    ///
    /// # Errors
    ///
    /// Returns a [`DeError`] if the value's shape does not match.
    fn from_owned_value(value: Value) -> Result<Self, DeError> {
        Self::from_value(&value)
    }
}

/// Looks up and deserializes a struct field; used by the derive macro.
///
/// # Errors
///
/// Returns a [`DeError`] if the field is missing or has the wrong shape.
pub fn de_field<T: Deserialize>(fields: &[(String, Value)], key: &str) -> Result<T, DeError> {
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, v)) => T::from_value(v).map_err(|e| DeError::new(format!("field `{key}`: {e}"))),
        None => Err(DeError::new(format!("missing field `{key}`"))),
    }
}

// ---------------------------------------------------------------------------
// Serialize implementations
// ---------------------------------------------------------------------------

macro_rules! impl_ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
    )*};
}
impl_ser_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
    )*};
}
impl_ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (*self).to_value()
    }

    fn to_value_cow(&self) -> Cow<'_, Value> {
        (**self).to_value_cow()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
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

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

macro_rules! impl_ser_tuple {
    ($(($($n:tt $t:ident),+)),+) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
    )+};
}
impl_ser_tuple!(
    (0 A),
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
    (0 A, 1 B, 2 C, 3 D, 4 E)
);

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn to_value_cow(&self) -> Cow<'_, Value> {
        Cow::Borrowed(self)
    }
}

// ---------------------------------------------------------------------------
// Deserialize implementations
// ---------------------------------------------------------------------------

fn value_as_i128(value: &Value) -> Option<i128> {
    match *value {
        Value::Int(i) => Some(i128::from(i)),
        Value::UInt(u) => Some(i128::from(u)),
        Value::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e18 => Some(f as i128),
        _ => None,
    }
}

macro_rules! impl_de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let n = value_as_i128(value)
                    .ok_or_else(|| DeError::expected("integer", value))?;
                <$t>::try_from(n)
                    .map_err(|_| DeError::new(format!("integer {n} out of range")))
            }
        }
    )*};
}
impl_de_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match *value {
            Value::Float(f) => Ok(f),
            Value::Int(i) => Ok(i as f64),
            Value::UInt(u) => Ok(u as f64),
            _ => Err(DeError::expected("number", value)),
        }
    }
}

impl Deserialize for f32 {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        f64::from_value(value).map(|f| f as f32)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match *value {
            Value::Bool(b) => Ok(b),
            _ => Err(DeError::expected("bool", value)),
        }
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(DeError::expected("string", value)),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        value
            .as_array()
            .ok_or_else(|| DeError::expected("array", value))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

macro_rules! impl_de_tuple {
    ($(($len:expr; $($n:tt $t:ident),+)),+) => {$(
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let items = value
                    .as_array()
                    .ok_or_else(|| DeError::expected("array", value))?;
                if items.len() != $len {
                    return Err(DeError::new(format!(
                        "expected array of length {}, got {}",
                        $len,
                        items.len()
                    )));
                }
                Ok(($($t::from_value(&items[$n])?,)+))
            }
        }
    )+};
}
impl_de_tuple!(
    (1; 0 A),
    (2; 0 A, 1 B),
    (3; 0 A, 1 B, 2 C),
    (4; 0 A, 1 B, 2 C, 3 D),
    (5; 0 A, 1 B, 2 C, 3 D, 4 E)
);

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(value.clone())
    }

    fn from_owned_value(value: Value) -> Result<Self, DeError> {
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u32::from_value(&42u32.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-7i64).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_value()).unwrap(),
            "hi".to_string()
        );
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1u32, 2.5f64), (3, 4.5)];
        let round: Vec<(u32, f64)> = Vec::from_value(&v.to_value()).unwrap();
        assert_eq!(v, round);
        let o: Option<u8> = None;
        assert_eq!(o.to_value(), Value::Null);
        assert_eq!(Option::<u8>::from_value(&Value::Null).unwrap(), None);
    }

    #[test]
    fn mismatch_reports_kinds() {
        let err = bool::from_value(&Value::Str("x".into())).unwrap_err();
        assert!(err.to_string().contains("bool"));
    }
}
