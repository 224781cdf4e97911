//! The replicated data item: a paged object supporting *partial writes*.
//!
//! The paper's motivating class of systems (file systems) update "only a
//! portion of the data item rather than replacing it entirely with a new
//! value" (§3). We model the data item as a fixed array of pages; a
//! [`PartialWrite`] touches a subset of the pages. Each replica keeps a
//! bounded [`WriteLog`] of recent writes so that update propagation can ship
//! just the missing suffix of writes to a stale replica, falling back to a
//! full snapshot when the log has been trimmed.

use std::sync::Arc;

use bytes::Bytes;

/// Index of a page within the data item.
pub type PageId = u16;

/// A partial write: new contents for a subset of pages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartialWrite {
    /// Updated pages, each `(page, new contents)`. Pages may appear at most
    /// once; see [`PartialWrite::new`].
    pub pages: Vec<(PageId, Bytes)>,
}

impl PartialWrite {
    /// Builds a partial write; later duplicates of a page override earlier
    /// ones (last-writer-wins within one write).
    pub fn new<I: IntoIterator<Item = (PageId, Bytes)>>(pages: I) -> Self {
        let mut v: Vec<(PageId, Bytes)> = pages.into_iter().collect();
        // Stable de-dup keeping the last occurrence.
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::with_capacity(v.len());
        while let Some(entry) = v.pop() {
            if seen.insert(entry.0) {
                out.push(entry);
            }
        }
        out.reverse();
        PartialWrite { pages: out }
    }

    /// A write that replaces the whole object (a "total write", the only
    /// kind the conventional protocols support efficiently).
    pub fn total(contents: Vec<Bytes>) -> Self {
        PartialWrite {
            pages: contents
                .into_iter()
                .enumerate()
                .map(|(i, b)| (i as PageId, b))
                .collect(),
        }
    }

    /// Number of pages touched.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True if the write touches no pages (legal; bumps the version only).
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

/// An immutable image of the whole object, shared by all who hold its version.
pub type Pages = Arc<[Bytes]>;

/// The materialized data item at one replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PagedObject {
    pages: Pages,
}

impl PagedObject {
    /// An object of `n_pages` empty pages.
    pub fn new(n_pages: usize) -> Self {
        PagedObject {
            pages: vec![Bytes::new(); n_pages].into(),
        }
    }

    /// Number of pages.
    pub fn n_pages(&self) -> usize {
        self.pages.len()
    }

    /// Contents of page `p`, if it exists.
    pub fn page(&self, p: PageId) -> Option<&Bytes> {
        self.pages.get(p as usize)
    }

    /// Applies a partial write. Pages beyond the object are ignored
    /// (validated at the client boundary; defensive here).
    pub fn apply(&mut self, write: &PartialWrite) {
        for (p, contents) in &write.pages {
            self.write_page(*p, contents.clone());
        }
    }

    /// The object's image, shared rather than copied: later writes leave it as is.
    pub fn snapshot(&self) -> Pages {
        self.pages.clone()
    }

    /// Replaces the whole object from a snapshot.
    pub fn restore(&mut self, snapshot: Pages) {
        self.pages = snapshot;
    }

    /// Overwrites one page, copying the image first if a snapshot holds
    /// it. Out-of-range pages are ignored, mirroring [`apply`](PagedObject::apply).
    pub fn write_page(&mut self, p: PageId, contents: Bytes) {
        if (p as usize) < self.pages.len() {
            Arc::make_mut(&mut self.pages)[p as usize] = contents;
        }
    }

    /// An order-sensitive FNV-1a digest over all pages, used by the
    /// consistency checker to compare replica contents cheaply.
    pub fn digest(&self) -> u64 {
        digest(&self.pages)
    }
}

/// The [`PagedObject::digest`] of an object holding `pages`.
pub(crate) fn digest(pages: &[Bytes]) -> u64 {
    let fold = |h, page: &Bytes| fnv1a(fnv1a(h, &(page.len() as u32).to_le_bytes()), page);
    pages.iter().fold(FNV1A_SEED, fold)
}

/// The FNV-1a offset basis: the hash of no bytes.
pub(crate) const FNV1A_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a hash `h`.
pub(crate) fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let eat = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
    bytes.iter().fold(h, eat)
}

/// One committed write in the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogEntry {
    /// The version the object reached by applying this write.
    pub version: u64,
    /// The write itself.
    pub write: PartialWrite,
}

/// A bounded log of recent writes, ordered by version.
///
/// Entries are immutable once pushed and held behind `Arc`: the live log
/// and the journal delta of the step that pushed an entry hold the *same*
/// entry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WriteLog {
    entries: std::collections::VecDeque<Arc<LogEntry>>,
    cap: usize,
}

/// What one step did to a [`WriteLog`]: emptied it (a snapshot restore),
/// then pushed entries. Trimming is not recorded — it follows from the cap,
/// which is configuration, so replaying the pushes re-trims.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LogDelta {
    /// The log was emptied before `pushed` was appended.
    pub cleared: bool,
    /// The entries appended, oldest first.
    pub pushed: Vec<Arc<LogEntry>>,
}

impl LogDelta {
    /// True if the log did not change.
    pub fn is_empty(&self) -> bool {
        !self.cleared && self.pushed.is_empty()
    }
}

impl WriteLog {
    /// A log retaining at most `cap` recent writes.
    pub fn new(cap: usize) -> Self {
        WriteLog {
            entries: std::collections::VecDeque::with_capacity(cap.min(64)),
            cap,
        }
    }

    /// Appends a committed write; versions must be strictly increasing.
    /// `step` is what this log has done so far in the current step, and
    /// takes the push: it holds the pushes since the step's last clear, the
    /// last `cap` of them, and is `cleared` once nothing the log held at the
    /// start of the step is left in it.
    pub(crate) fn push(&mut self, entry: LogEntry, step: &mut LogDelta) {
        if let Some(last) = self.entries.back() {
            debug_assert!(entry.version > last.version, "log versions must increase");
        }
        // The log held entries at the start of the step.
        let held_entries = step.cleared || self.entries.len() > step.pushed.len();
        let entry = Arc::new(entry);
        self.push_shared(entry.clone());
        step.pushed.push(entry);
        if step.pushed.len() > self.cap {
            step.pushed.remove(0);
        }
        step.cleared |= held_entries && step.pushed.len() >= self.cap;
    }

    /// Empties the log (a snapshot restore), noting it in `step` as for
    /// [`push`](WriteLog::push): clearing a log that was empty at the start
    /// of the step is no change.
    pub(crate) fn clear(&mut self, step: &mut LogDelta) {
        step.cleared |= self.entries.len() > step.pushed.len();
        step.pushed.clear();
        self.entries.clear();
    }

    /// Appends an entry another log already holds, then trims to the cap.
    /// No version check: journal replay must accept whatever was recorded.
    fn push_shared(&mut self, entry: Arc<LogEntry>) {
        self.entries.push_back(entry);
        while self.entries.len() > self.cap {
            self.entries.pop_front();
        }
    }

    /// Replays `delta`. Total: a pushed entry whose version does not extend
    /// this log (records of several journals replayed onto one state) is
    /// appended as is.
    pub(crate) fn apply(&mut self, delta: &LogDelta) {
        if delta.cleared {
            self.entries.clear();
        }
        for entry in &delta.pushed {
            self.push_shared(entry.clone());
        }
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The retained entries in version order.
    pub fn iter(&self) -> impl Iterator<Item = &LogEntry> {
        self.entries.iter().map(|e| &**e)
    }

    /// The writes needed to carry a replica from `from_version` up to the
    /// newest logged version, i.e. all entries with `version > from_version`
    /// — or `None` if the log has been trimmed past `from_version + 1`
    /// (the caller must fall back to a snapshot).
    pub fn updates_since(&self, from_version: u64) -> Option<Vec<LogEntry>> {
        let first = self.entries.front()?;
        if from_version + 1 < first.version {
            return None; // gap: the needed prefix was trimmed
        }
        Some(
            self.iter()
                .filter(|e| e.version > from_version)
                .cloned()
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn partial_write_dedups_keeping_last() {
        let w = PartialWrite::new([(1, b("old")), (2, b("x")), (1, b("new"))]);
        assert_eq!(w.len(), 2);
        let page1 = w.pages.iter().find(|(p, _)| *p == 1).unwrap();
        assert_eq!(page1.1, b("new"));
        assert!(!w.is_empty());
        assert!(PartialWrite::new([]).is_empty());
    }

    #[test]
    fn total_write_covers_all_pages() {
        let w = PartialWrite::total(vec![b("a"), b("bb")]);
        assert_eq!(w.len(), 2);
        assert_eq!(w.pages[0], (0, b("a")));
        assert_eq!(w.pages[1], (1, b("bb")));
    }

    #[test]
    fn apply_and_digest() {
        let mut o = PagedObject::new(4);
        let d0 = o.digest();
        o.apply(&PartialWrite::new([(2, b("hello"))]));
        assert_eq!(o.page(2), Some(&b("hello")));
        assert_eq!(o.page(0), Some(&Bytes::new()));
        assert_ne!(o.digest(), d0);
        // Out-of-range pages are ignored.
        o.apply(&PartialWrite::new([(9, b("zz"))]));
        assert_eq!(o.n_pages(), 4);
        assert!(o.page(9).is_none());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = PagedObject::new(2);
        a.apply(&PartialWrite::new([(0, b("x")), (1, b("y"))]));
        let mut c = PagedObject::new(2);
        c.apply(&PartialWrite::new([(0, b("y")), (1, b("x"))]));
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn a_snapshot_shares_the_image_until_a_write_lands() {
        let mut o = PagedObject::new(3);
        o.apply(&PartialWrite::new([(1, b("v1"))]));
        let snap = o.snapshot();
        assert!(Arc::ptr_eq(&snap, &o.snapshot()), "unchanged: one image");
        let (mut applied, mut written, mut restored) = (o.clone(), o.clone(), PagedObject::new(3));
        applied.apply(&PartialWrite::new([(1, b("v2"))]));
        written.write_page(0, b("w"));
        restored.restore(snap.clone());
        assert_eq!((&restored, restored.digest()), (&o, o.digest()));
        restored.restore(PagedObject::new(3).snapshot());
        for changed in [applied, written, restored] {
            assert!(!Arc::ptr_eq(&snap, &changed.snapshot()));
        }
        assert_eq!(snap[..], [Bytes::new(), b("v1"), Bytes::new()]);
    }

    #[test]
    fn log_serves_contiguous_suffix() {
        let mut log = WriteLog::new(10);
        for v in 1..=5 {
            let write = PartialWrite::new([(0, b("x"))]);
            log.push(LogEntry { version: v, write }, &mut LogDelta::default());
        }
        let ups = log.updates_since(2).unwrap();
        assert_eq!(
            ups.iter().map(|e| e.version).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert_eq!(log.updates_since(5).unwrap(), vec![]);
        assert_eq!(log.updates_since(0).unwrap().len(), 5);
    }

    #[test]
    fn log_trims_and_reports_gaps() {
        let mut log = WriteLog::new(3);
        for v in 1..=6 {
            let write = PartialWrite::new([]);
            log.push(LogEntry { version: v, write }, &mut LogDelta::default());
        }
        assert_eq!(log.len(), 3); // versions 4, 5, 6
        assert!(log.updates_since(1).is_none(), "needs v2 which was trimmed");
        assert!(log.updates_since(2).is_none());
        assert!(log.updates_since(3).is_some(), "v4.. is intact");
        assert_eq!(log.updates_since(3).unwrap().len(), 3);
    }

    #[test]
    fn cloned_log_shares_entries_and_diverges_on_push() {
        let write = PartialWrite::new([(0, b("x"))]);
        let mut log = WriteLog::new(4);
        for version in 1..=2 {
            let write = write.clone();
            log.push(LogEntry { version, write }, &mut LogDelta::default());
        }
        let mut copy = log.clone();
        assert_eq!(copy, log);
        // A clone bumps refcounts; it copies no entry.
        assert!(log.iter().zip(copy.iter()).all(|(a, b)| std::ptr::eq(a, b)));
        copy.push(LogEntry { version: 3, write }, &mut LogDelta::default());
        let versions = |log: &WriteLog| log.iter().map(|e| e.version).collect::<Vec<_>>();
        assert_eq!(
            (versions(&copy), versions(&log)),
            (vec![1, 2, 3], vec![1, 2])
        );
    }

    #[test]
    fn empty_log_has_no_updates() {
        let log = WriteLog::new(4);
        assert!(log.updates_since(0).is_none());
        assert!(log.is_empty());
    }
}
