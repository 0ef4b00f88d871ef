//! Offline shim for the subset of `serde` this workspace uses.
//!
//! The real serde's format-agnostic visitor model is replaced by a
//! JSON-only streaming model: [`Serialize`] writes JSON text straight into
//! a [`Writer`], and [`Deserialize`] pulls tokens from a [`Reader`] over
//! the input text. Nothing is lowered to an intermediate tree on either
//! side. The derive macros (re-exported from the in-tree `serde_derive`
//! shim) generate both methods with the same external JSON representation
//! serde_json would produce: newtype structs are transparent, unit enum
//! variants are strings, data-carrying variants are single-key objects,
//! and `Option` fields treat a missing key as `None`.
//!
//! [`Value`] is kept as a lenient, indexable parse target; it implements
//! the same two traits like any other type.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

mod impls;
mod json;
pub mod value;

pub use json::{Reader, Writer, MAX_DEPTH};
pub use value::{Number, Object, Value};

/// Deserialization error: a human-readable description of the mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// Error for a value of the wrong shape.
    pub fn expected(what: &str, while_parsing: &str) -> Self {
        DeError(format!("expected {what} while parsing {while_parsing}"))
    }

    /// Error for a required object key that is absent.
    pub fn missing(field: &str) -> Self {
        DeError(format!("missing field `{field}`"))
    }

    /// Error for an enum variant name that does not exist.
    pub fn unknown_variant(variant: &str, of: &str) -> Self {
        DeError(format!("unknown variant `{variant}` of {of}"))
    }

    /// Error with a custom message.
    pub fn custom(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that can write themselves as JSON.
pub trait Serialize {
    /// Appends this value's JSON text to `w`.
    fn serialize(&self, w: &mut Writer);
}

/// Types that can read themselves from JSON.
pub trait Deserialize: Sized {
    /// Reads one value from `r`, consuming exactly its tokens.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError>;

    /// The value of a struct field whose key is absent. The default
    /// requires the key; `Option<T>` overrides this so a missing key
    /// reads as `None` (matching serde's derive behaviour).
    fn missing_field(name: &str) -> Result<Self, DeError> {
        Err(DeError::missing(name))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w)
    }
}

/// Helpers called by derive-generated code; not a public API.
#[doc(hidden)]
pub mod __private {
    use crate::{DeError, Deserialize, Reader};

    /// Reads a struct field into its slot; a repeated key overwrites.
    pub fn field<T: Deserialize>(slot: &mut Option<T>, r: &mut Reader<'_>) -> Result<(), DeError> {
        *slot = Some(T::deserialize(r)?);
        Ok(())
    }

    /// The field's value, or [`Deserialize::missing_field`] if its key
    /// never appeared.
    pub fn take<T: Deserialize>(slot: Option<T>, name: &str) -> Result<T, DeError> {
        match slot {
            Some(v) => Ok(v),
            None => T::missing_field(name),
        }
    }

    /// Steps to the next of `n` tuple elements, erroring if the array
    /// ends early.
    pub fn element(r: &mut Reader<'_>, n: usize, while_parsing: &str) -> Result<(), DeError> {
        if r.next_element()? {
            Ok(())
        } else {
            Err(DeError::expected(
                &format!("{n}-element array"),
                while_parsing,
            ))
        }
    }

    /// Consumes the `]` after the last of `n` tuple elements, erroring
    /// if more follow.
    pub fn end_tuple(r: &mut Reader<'_>, n: usize, while_parsing: &str) -> Result<(), DeError> {
        if r.next_element()? {
            Err(DeError::expected(
                &format!("{n}-element array"),
                while_parsing,
            ))
        } else {
            Ok(())
        }
    }
}
