// Fixture: E001 lifecycle drill — a cluster member's lifecycle enum is
// policed like a fault enum. A wildcard that treats "everything not up"
// alike would silently mishandle a lifecycle state added later.

pub enum Member {
    Up(u32),
    Silent(u32),
    Stopped,
    Wiped { seq_floor: u64 },
    Departed,
}

pub fn answers_ops(m: &Member) -> bool {
    match m {
        Member::Up(_) => true,
        _ => false,
    }
}

pub fn holds_state(m: &Member) -> Option<u32> {
    match m {
        Member::Up(s) | Member::Silent(s) => Some(*s),
        Member::Stopped | Member::Wiped { .. } | Member::Departed => None,
    }
}
