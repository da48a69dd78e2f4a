//! Application-name interning for the scheduler hot path.
//!
//! The schedulers compare, hash, and sort application identities on every
//! score lookup and placement. Interning maps each name to a dense
//! [`AppId`] once, after which the hot path moves only `Copy` integers:
//! free-slot neighbour classes become a packed `u64` ([`ClassKey`]) and
//! score memoization becomes an array index instead of a
//! `(String, String)` hash probe.

use std::collections::HashMap;

/// Maximum number of neighbours a [`ClassKey`] can encode (one 16-bit
/// lane per neighbour in a `u64`). A machine may therefore host at most
/// `MAX_NEIGHBOURS + 1` VM slots.
pub const MAX_NEIGHBOURS: usize = 4;

/// A dense, `Copy` application identifier assigned by an [`AppRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppId(pub u16);

impl AppId {
    /// The id as a table index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Bidirectional name ↔ [`AppId`] map.
///
/// Ids are assigned in **lexicographic name order**, so two registries
/// built from the same name set are identical, and the numeric order of
/// [`ClassKey`]s matches the lexicographic order of the `"+"`-joined
/// string keys the free-class index used before interning (`'+'` sorts
/// below every character that appears in an application name). Schedulers
/// break score ties by first-minimum iteration order, so this keeps every
/// tie decision bit-identical to the string-keyed implementation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppRegistry {
    names: Vec<String>,
    index: HashMap<String, u16>,
}

impl AppRegistry {
    /// Builds a registry from a set of names (sorted and de-duplicated).
    ///
    /// # Panics
    /// Panics when there are more than `u16::MAX - 1` distinct names.
    pub fn from_names<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut names: Vec<String> = names.into_iter().map(Into::into).collect();
        names.sort_unstable();
        names.dedup();
        assert!(
            names.len() < u16::MAX as usize,
            "too many applications to intern"
        );
        let index = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u16))
            .collect();
        AppRegistry { names, index }
    }

    /// The id of a registered name.
    pub fn id(&self, name: &str) -> Option<AppId> {
        self.index.get(name).copied().map(AppId)
    }

    /// The id of a registered name.
    ///
    /// # Panics
    /// Panics when the name is unknown.
    pub fn expect_id(&self, name: &str) -> AppId {
        self.id(name)
            .unwrap_or_else(|| panic!("unknown application '{name}'"))
    }

    /// The name behind an id.
    ///
    /// # Panics
    /// Panics when the id was not assigned by this registry.
    pub fn name(&self, id: AppId) -> &str {
        &self.names[id.index()]
    }

    /// Number of registered applications.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All names in id order (lexicographic).
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// All ids in order.
    pub fn ids(&self) -> impl Iterator<Item = AppId> {
        (0..self.names.len() as u16).map(AppId)
    }
}

/// A free-slot neighbour class: the multiset of applications resident on
/// the same machine, packed into a single `u64`.
///
/// Each neighbour occupies a 16-bit lane holding `id + 1` (0 = no
/// neighbour); lanes are sorted ascending with the smallest id in the
/// most-significant lane, so the derived `Ord` on the packed word equals
/// the lexicographic order of the sorted name tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ClassKey(u64);

impl ClassKey {
    /// The class of a slot whose machine is otherwise idle.
    pub const IDLE: ClassKey = ClassKey(0);

    /// Packs a neighbour multiset into a key.
    ///
    /// # Panics
    /// Panics when there are more than [`MAX_NEIGHBOURS`] neighbours.
    pub fn from_neighbours<I: IntoIterator<Item = AppId>>(neighbours: I) -> Self {
        let mut lanes = [0u16; MAX_NEIGHBOURS];
        let mut n = 0;
        for id in neighbours {
            assert!(
                n < MAX_NEIGHBOURS,
                "class key overflow: more than {MAX_NEIGHBOURS} neighbours"
            );
            lanes[n] = id.0 + 1;
            n += 1;
        }
        lanes[..n].sort_unstable();
        let mut packed = 0u64;
        for (i, lane) in lanes.iter().enumerate() {
            packed |= (*lane as u64) << (48 - 16 * i);
        }
        ClassKey(packed)
    }

    /// The class with `app` added to the neighbour multiset: where a free
    /// slot of class `self` lands when its machine takes a task of `app`.
    ///
    /// # Panics
    /// Panics when the class already has [`MAX_NEIGHBOURS`] neighbours.
    pub fn with(self, app: AppId) -> Self {
        ClassKey::from_neighbours(self.ids().chain([app]))
    }

    /// Whether this is the idle class (no neighbours).
    #[inline]
    pub fn is_idle(self) -> bool {
        self.0 == 0
    }

    /// The lone neighbour, when the class has exactly one.
    #[inline]
    pub fn single(self) -> Option<AppId> {
        if self.0 != 0 && self.0 & 0x0000_FFFF_FFFF_FFFF == 0 {
            Some(AppId((self.0 >> 48) as u16 - 1))
        } else {
            None
        }
    }

    /// Number of neighbours in the class.
    pub fn count(self) -> usize {
        self.ids().count()
    }

    /// The neighbour ids, smallest first.
    pub fn ids(self) -> impl Iterator<Item = AppId> {
        (0..MAX_NEIGHBOURS)
            .map(move |i| ((self.0 >> (48 - 16 * i)) & 0xFFFF) as u16)
            .take_while(|lane| *lane != 0)
            .map(|lane| AppId(lane - 1))
    }

    /// The raw packed word (diagnostics, fallback cache keys).
    #[inline]
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Renders the class as the legacy `"+"`-joined name list ("" for
    /// idle) — for display and for comparison against string-keyed code.
    pub fn render(self, registry: &AppRegistry) -> String {
        self.ids()
            .map(|id| registry.name(id))
            .collect::<Vec<_>>()
            .join("+")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> AppRegistry {
        AppRegistry::from_names(["web", "dedup", "email", "app0"])
    }

    #[test]
    fn ids_are_assigned_in_sorted_name_order() {
        let r = reg();
        assert_eq!(r.names(), &["app0", "dedup", "email", "web"]);
        assert_eq!(r.expect_id("app0"), AppId(0));
        assert_eq!(r.expect_id("web"), AppId(3));
        assert_eq!(r.name(AppId(1)), "dedup");
        assert_eq!(r.id("nope"), None);
    }

    #[test]
    fn registries_from_same_names_agree() {
        let a = AppRegistry::from_names(["b", "a", "c"]);
        let b = AppRegistry::from_names(["c", "b", "a", "a"]);
        assert_eq!(a, b);
    }

    #[test]
    fn class_key_roundtrips_and_sorts_like_strings() {
        let r = reg();
        let key = |names: &[&str]| ClassKey::from_neighbours(names.iter().map(|n| r.expect_id(n)));
        // The packed order must match the lexicographic order of the
        // "+"-joined string keys the seed implementation used.
        let mut string_keys: Vec<String> = Vec::new();
        let mut packed: Vec<ClassKey> = Vec::new();
        for names in [
            vec![],
            vec!["app0"],
            vec!["app0", "app0"],
            vec!["app0", "web"],
            vec!["dedup"],
            vec!["dedup", "email", "web"],
            vec!["web"],
        ] {
            let mut sorted = names.clone();
            sorted.sort_unstable();
            string_keys.push(sorted.join("+"));
            packed.push(key(&names));
        }
        let mut by_string: Vec<usize> = (0..string_keys.len()).collect();
        by_string.sort_by(|&a, &b| string_keys[a].cmp(&string_keys[b]));
        let mut by_packed: Vec<usize> = (0..packed.len()).collect();
        by_packed.sort_by(|&a, &b| packed[a].cmp(&packed[b]));
        assert_eq!(by_string, by_packed);
        // Round-trip through render.
        assert_eq!(key(&["web", "app0"]).render(&r), "app0+web");
        assert_eq!(ClassKey::IDLE.render(&r), "");
    }

    #[test]
    fn class_key_shape_queries() {
        let r = reg();
        let a = r.expect_id("app0");
        let w = r.expect_id("web");
        assert!(ClassKey::IDLE.is_idle());
        assert_eq!(ClassKey::IDLE.count(), 0);
        assert_eq!(ClassKey::from_neighbours([w]).single(), Some(w));
        assert_eq!(ClassKey::from_neighbours([a, w]).single(), None);
        assert_eq!(ClassKey::from_neighbours([a, w, w]).count(), 3);
        let ids: Vec<AppId> = ClassKey::from_neighbours([w, a]).ids().collect();
        assert_eq!(ids, vec![a, w]);
        assert_eq!(ClassKey::IDLE.with(w), ClassKey::from_neighbours([w]));
        assert_eq!(
            ClassKey::from_neighbours([w, w]).with(a),
            ClassKey::from_neighbours([a, w, w])
        );
    }

    #[test]
    #[should_panic(expected = "class key overflow")]
    fn too_many_neighbours_panics() {
        let r = reg();
        let a = r.expect_id("app0");
        ClassKey::from_neighbours([a; 5]);
    }
}
