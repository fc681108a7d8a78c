//! Fixture: a datapath module that must produce ZERO findings, stuffed
//! with lexer edge cases that naive text matching would flag.
//! Linted under the virtual path `crates/hw/src/cluster.rs`.
#![forbid(unsafe_code)]

/// Talks about f32 and f64 in docs; computes `0.5 * x` conceptually.
pub fn halve(x: u32) -> u32 {
    // An inline comment mentioning 1.5 and unwrap() must not fire.
    x / 2
}

pub fn range_is_not_float() -> u32 {
    let mut sum = 0;
    for i in 1..4 {
        sum += i;
    }
    sum
}

pub fn method_on_int_is_not_float(v: u32) -> u32 {
    9.max(v)
}

pub fn strings_hide_everything() -> &'static str {
    "f32 f64 3.14 .unwrap() panic! as u8"
}

pub fn raw_strings_too() -> &'static str {
    r#"to_f64() and 2.0f32 and .expect("x")"#
}

pub fn lifetimes_are_not_chars<'a>(s: &'a str) -> &'a str {
    s
}

pub fn widening_cast_ok(v: u8) -> u64 {
    v as u64
}

/* Block comments with f64 and
   /* nested 2.5 comments */ and unwrap() stay invisible. */
pub fn done(v: u16) -> u16 {
    v.saturating_add(1)
}
