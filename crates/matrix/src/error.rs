//! Error types for signed-permutation construction.

use std::error::Error;
use std::fmt;

/// Error returned when constructing an invalid [`SignedPerm`].
///
/// [`SignedPerm`]: crate::SignedPerm
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PermError {
    /// The mapping and sign vectors have different lengths.
    LengthMismatch {
        /// Length of the target-line vector.
        lines: usize,
        /// Length of the inversion-flag vector.
        signs: usize,
    },
    /// A target line index is out of range.
    LineOutOfRange {
        /// The offending bit.
        bit: usize,
        /// Its (invalid) target line.
        line: usize,
        /// The permutation size.
        n: usize,
    },
    /// Two bits map to the same line.
    DuplicateLine {
        /// The line that is targeted twice.
        line: usize,
    },
    /// A bit's entry in the text form is not a line number.
    MalformedEntry {
        /// The offending bit.
        bit: usize,
        /// Its entry, as written.
        token: String,
    },
}

impl fmt::Display for PermError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PermError::LengthMismatch { lines, signs } => write!(
                f,
                "signed permutation vectors have mismatched lengths ({lines} lines, {signs} signs)"
            ),
            PermError::LineOutOfRange { bit, line, n } => write!(
                f,
                "bit {bit} maps to line {line}, outside the valid range 0..{n}"
            ),
            PermError::DuplicateLine { line } => {
                write!(f, "line {line} is targeted by more than one bit")
            }
            PermError::MalformedEntry { bit, token } => {
                write!(f, "bit {bit} has entry `{token}`, expected a line number")
            }
        }
    }
}

impl Error for PermError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = PermError::LengthMismatch { lines: 3, signs: 2 };
        assert!(e.to_string().contains("mismatched lengths"));
        let e = PermError::LineOutOfRange { bit: 1, line: 9, n: 4 };
        assert!(e.to_string().contains("line 9"));
        let e = PermError::DuplicateLine { line: 2 };
        assert!(e.to_string().contains("line 2"));
        let e = PermError::MalformedEntry { bit: 1, token: "x".into() };
        assert_eq!(e.to_string(), "bit 1 has entry `x`, expected a line number");
    }
}
