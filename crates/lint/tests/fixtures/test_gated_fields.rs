//! Fixture: test-gated fields that end at their enclosing `}` — one in a
//! struct, one in a struct literal — each followed by library code with a
//! seeded violation.
#![forbid(unsafe_code)]

pub struct Probe {
    pub id: u32,
    #[cfg(test)]
    pub trace: Vec<u32>
}

pub fn probe(ids: &[u32]) -> Probe {
    // VIOLATION: unwrap() on line 14.
    let id = *ids.first().unwrap();
    Probe {
        id,
        #[cfg(test)]
        trace: Some(vec![id]).unwrap()
    }
}

// VIOLATION: unwrap() on line 24.
pub fn first(v: &[u8]) -> u8 {
    *v.first().unwrap()
}
