//! Offline stand-in for `serde_json`: the two entry points the repository
//! calls compile and return a typed error saying so.

use std::fmt;

/// The only error this stand-in produces.
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json is an offline stand-in in the benchmark build")
    }
}

impl std::error::Error for Error {}

/// Always `Err`: the stand-in cannot serialise.
pub fn to_string_pretty<T: ?Sized>(_value: &T) -> Result<String, Error> {
    Err(Error)
}

/// Always `Err`: the stand-in cannot deserialise.
pub fn from_str<T>(_s: &str) -> Result<T, Error> {
    Err(Error)
}
