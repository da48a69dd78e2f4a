//! Offline stand-in for `serde_json`. Serialization is not available
//! offline: both entry points return an error, so
//! `Testbed::from_snapshot_json` reports it and `Testbed::snapshot_json`
//! panics with its own message. The benchmark harness calls neither; it
//! writes its JSON itself.

use std::fmt;

/// The only error the stand-in produces.
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json is an offline stand-in: no serialization available")
    }
}

impl std::error::Error for Error {}

/// Always fails; see the crate docs.
pub fn to_string<T: ?Sized>(_value: &T) -> Result<String, Error> {
    Err(Error)
}

/// Always fails; see the crate docs.
pub fn from_str<T>(_text: &str) -> Result<T, Error> {
    Err(Error)
}
