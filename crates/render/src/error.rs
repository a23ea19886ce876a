//! Typed render errors and limits.
//!
//! Rendering walks an untrusted page's DOM into content lines; a hostile
//! page can try to explode the line count (one `<br>` per byte). The
//! layout engine truncates at the budget and reports it
//! ([`render_lines_capped`]); callers choose the stance. Extraction
//! degrades gracefully (the flag becomes a diagnostic), while wrapper
//! construction rejects the page with a [`RenderError`].
//!
//! [`render_lines_capped`]: crate::layout::render_lines_capped

use std::fmt;

/// A render rejected by its line budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RenderError {
    /// The page produced more content lines than `max`.
    LineBudgetExceeded { max: usize },
}

impl fmt::Display for RenderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RenderError::LineBudgetExceeded { max } => {
                write!(f, "page exceeds the {max}-content-line budget")
            }
        }
    }
}

impl std::error::Error for RenderError {}
