// Fixture: P001 — unchecked indexing on the hot path. Flagged sites
// index growable storage with no covering bound check; fixed-size
// arrays, literal indices, ranges, and len()/get()-covered bases are
// exempt.

pub struct Shards {
    gear: [u64; 256],
    present: Vec<u64>,
}

impl Shards {
    pub fn unchecked(&self, word: usize) -> u64 {
        self.present[word]
    }

    pub fn covered(&self, word: usize) -> u64 {
        if word < self.present.len() {
            self.present[word]
        } else {
            0
        }
    }

    pub fn fixed_array(&self, b: u8) -> u64 {
        self.gear[b as usize]
    }
}

pub fn literal_and_range(data: &[u8]) -> (u8, &[u8]) {
    (data[0], &data[2..4])
}

pub fn get_based(data: &[u8], i: usize) -> u8 {
    data.get(i).copied().unwrap_or(0)
}

pub fn local_fixed(i: usize) -> u64 {
    let table = [0u64; 16];
    table[i % 16]
}

pub fn plain_unchecked(data: &[u8], i: usize) -> u8 {
    data[i]
}

pub type Field<'a> = (&'a [u8], Option<&'a [u8]>);

pub fn borrowed<'a>(data: &'a [u8]) -> Field<'a> {
    (data, None)
}
