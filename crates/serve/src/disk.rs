//! The persistent result cache: length-prefixed records in an
//! append-only data file plus a sidecar index, keyed by the same
//! `job_key` fingerprints the in-memory tier uses.
//!
//! Layout under `--cache-dir`:
//!
//! * `exact.dat` — append-only records, each self-describing:
//!   `magic(4) | key(8) | flags(1) | result_hash(8) | json_len(4) |
//!   json bytes`. The stored bytes are the job's `FlowOutput` JSON
//!   exactly as the first run rendered it, so a disk replay is
//!   byte-identical to `synthesize_batch` output by
//!   construction — nothing is re-encoded on either side of the disk.
//! * `exact.idx` — fixed-width `(key, offset, json_len, flags, hash)`
//!   rows appended in lockstep, so warm start is one small sequential
//!   read instead of a full data scan.
//!
//! Warm start trusts the index only as far as it can be validated
//! against the data file; a missing, misaligned, or truncated index
//! falls back to scanning `exact.dat` record by record (records carry
//! a per-record magic, so a torn tail from a crash mid-append is
//! detected and truncated away rather than poisoning later appends).
//! Duplicate keys keep the *last* record — results are deterministic,
//! so all records for a key hold identical bytes and this only matters
//! for offset bookkeeping.
//!
//! One server per cache directory: appenders track their own write
//! offsets, so two daemons sharing a directory would interleave
//! records and corrupt each other's index offsets.

use crate::cache::CachedResult;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Per-record magic: lets the warm-start scan resynchronize on (in
/// practice: stop at) a torn tail instead of misreading garbage
/// lengths.
const RECORD_MAGIC: [u8; 4] = *b"MRC1";
/// Fixed bytes before the JSON payload in a data record.
const RECORD_HEADER: u64 = 4 + 8 + 1 + 8 + 4;
/// Fixed width of one index row.
const INDEX_ROW: usize = 8 + 8 + 4 + 1 + 8;
/// `flags` bit: the record carries a result fingerprint.
const FLAG_HAS_HASH: u8 = 1;

/// Where one cached payload lives inside `exact.dat`.
#[derive(Clone, Copy, Debug)]
struct DiskSlot {
    /// Offset of the record (magic byte 0).
    offset: u64,
    /// Payload length in bytes.
    json_len: u32,
    /// The stored `result_hash`, if the record carried one.
    hash: Option<u64>,
}

struct DiskInner {
    data: File,
    index_file: File,
    index: HashMap<u64, DiskSlot>,
    /// Logical end of `exact.dat` (all appends go here).
    data_len: u64,
}

/// The on-disk result store. All operations are behind one mutex — disk
/// replays are rare enough (memory-tier misses only) that lock
/// contention is not the bottleneck, the seek is.
pub struct DiskCache {
    dir: PathBuf,
    inner: Mutex<DiskInner>,
}

impl DiskCache {
    /// Opens (or creates) the store under `dir` and warm-starts the
    /// index: every key recorded by any previous server generation is
    /// immediately servable.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures (directory creation, open,
    /// unreadable data file).
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let data_path = dir.join("exact.dat");
        let mut data = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&data_path)?;
        let data_len = data.metadata()?.len();

        let index_path = dir.join("exact.idx");
        let (index, valid_to) = match load_index(&index_path, data_len) {
            Some(loaded) => loaded,
            None => rebuild_index(&mut data, data_len)?,
        };
        // A torn tail (crash mid-append) would corrupt every later
        // append's framing; cut it off while nothing references it.
        if valid_to < data_len {
            data.set_len(valid_to)?;
        }
        let index_needs_rewrite = std::fs::metadata(&index_path)
            .map(|m| m.len() as usize != index_rows_len(&index))
            .unwrap_or(true);
        // Deliberately not `truncate(true)`: a still-valid index is
        // kept and appended to; stale ones are truncated just below.
        let mut index_file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&index_path)?;
        if index_needs_rewrite {
            index_file.set_len(0)?;
            index_file.seek(SeekFrom::Start(0))?;
            let mut rows = Vec::with_capacity(index_rows_len(&index));
            for (key, slot) in &index {
                push_index_row(&mut rows, *key, *slot);
            }
            index_file.write_all(&rows)?;
            index_file.flush()?;
        } else {
            index_file.seek(SeekFrom::End(0))?;
        }

        Ok(Self {
            dir: dir.to_path_buf(),
            inner: Mutex::new(DiskInner {
                data,
                index_file,
                index,
                data_len: valid_to,
            }),
        })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of distinct keys on disk.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .index
            .len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `key` has a record on disk.
    pub fn contains(&self, key: u64) -> bool {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .index
            .contains_key(&key)
    }

    /// Appends one payload. Returns `true` when a record was actually
    /// written — an already-stored key is skipped, because determinism
    /// guarantees the bytes would be identical.
    pub fn append(&self, key: u64, payload: &CachedResult) -> bool {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.index.contains_key(&key) {
            return false;
        }
        let json = payload.json.as_bytes();
        let Ok(json_len) = u32::try_from(json.len()) else {
            return false; // a >4 GiB payload is not a cacheable artifact
        };
        let slot = DiskSlot {
            offset: inner.data_len,
            json_len,
            hash: payload.result_hash,
        };
        let mut record = Vec::with_capacity(RECORD_HEADER as usize + json.len());
        record.extend_from_slice(&RECORD_MAGIC);
        record.extend_from_slice(&key.to_le_bytes());
        record.push(if slot.hash.is_some() {
            FLAG_HAS_HASH
        } else {
            0
        });
        record.extend_from_slice(&slot.hash.unwrap_or(0).to_le_bytes());
        record.extend_from_slice(&json_len.to_le_bytes());
        record.extend_from_slice(json);
        // Data lands before the index row referencing it; a crash
        // between the two writes loses only the index row, which the
        // warm-start scan reconstructs from the data file.
        if inner.data.write_all(&record).is_err() || inner.data.flush().is_err() {
            return false;
        }
        inner.data_len += record.len() as u64;
        let mut row = Vec::with_capacity(INDEX_ROW);
        push_index_row(&mut row, key, slot);
        let _ = inner.index_file.write_all(&row);
        let _ = inner.index_file.flush();
        inner.index.insert(key, slot);
        true
    }

    /// Reads the payload stored for `key`, byte-identical to what
    /// [`DiskCache::append`] was given.
    pub fn get(&self, key: u64) -> Option<CachedResult> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let slot = *inner.index.get(&key)?;
        if inner
            .data
            .seek(SeekFrom::Start(slot.offset + RECORD_HEADER))
            .is_err()
        {
            return None;
        }
        let mut buf = vec![0u8; slot.json_len as usize];
        if inner.data.read_exact(&mut buf).is_err() {
            return None;
        }
        let json = String::from_utf8(buf).ok()?;
        Some(CachedResult {
            json,
            result_hash: slot.hash,
        })
    }
}

fn index_rows_len(index: &HashMap<u64, DiskSlot>) -> usize {
    index.len() * INDEX_ROW
}

fn push_index_row(out: &mut Vec<u8>, key: u64, slot: DiskSlot) {
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&slot.offset.to_le_bytes());
    out.extend_from_slice(&slot.json_len.to_le_bytes());
    out.push(if slot.hash.is_some() {
        FLAG_HAS_HASH
    } else {
        0
    });
    out.extend_from_slice(&slot.hash.unwrap_or(0).to_le_bytes());
}

/// Loads and validates the sidecar index. Returns the key map plus the
/// validated extent of the data file, or `None` when the index is
/// missing, misaligned, or references bytes the data file doesn't
/// have — callers then rebuild from the data file itself.
fn load_index(path: &Path, data_len: u64) -> Option<(HashMap<u64, DiskSlot>, u64)> {
    let bytes = std::fs::read(path).ok()?;
    if bytes.is_empty() || bytes.len() % INDEX_ROW != 0 {
        return None;
    }
    let mut index = HashMap::new();
    let mut valid_to = 0u64;
    for row in bytes.chunks_exact(INDEX_ROW) {
        let key = u64::from_le_bytes(row[0..8].try_into().ok()?);
        let offset = u64::from_le_bytes(row[8..16].try_into().ok()?);
        let json_len = u32::from_le_bytes(row[16..20].try_into().ok()?);
        let flags = row[20];
        let hash = u64::from_le_bytes(row[21..29].try_into().ok()?);
        let end = offset
            .checked_add(RECORD_HEADER)?
            .checked_add(u64::from(json_len))?;
        if end > data_len {
            return None;
        }
        valid_to = valid_to.max(end);
        index.insert(
            key,
            DiskSlot {
                offset,
                json_len,
                hash: (flags & FLAG_HAS_HASH != 0).then_some(hash),
            },
        );
    }
    Some((index, valid_to))
}

/// Rebuilds the index by scanning self-describing records from the
/// data file. Stops at the first torn or unrecognizable record and
/// reports how far the file is trustworthy.
fn rebuild_index(data: &mut File, data_len: u64) -> std::io::Result<(HashMap<u64, DiskSlot>, u64)> {
    let mut index = HashMap::new();
    let mut offset = 0u64;
    data.seek(SeekFrom::Start(0))?;
    let mut header = [0u8; RECORD_HEADER as usize];
    while offset + RECORD_HEADER <= data_len {
        data.seek(SeekFrom::Start(offset))?;
        if data.read_exact(&mut header).is_err() {
            break;
        }
        if header[0..4] != RECORD_MAGIC {
            break;
        }
        let key = u64::from_le_bytes(header[4..12].try_into().unwrap_or_default());
        let flags = header[12];
        let hash = u64::from_le_bytes(header[13..21].try_into().unwrap_or_default());
        let json_len = u32::from_le_bytes(header[21..25].try_into().unwrap_or_default());
        let end = offset + RECORD_HEADER + u64::from(json_len);
        if end > data_len {
            break; // torn tail
        }
        index.insert(
            key,
            DiskSlot {
                offset,
                json_len,
                hash: (flags & FLAG_HAS_HASH != 0).then_some(hash),
            },
        );
        offset = end;
    }
    Ok((index, offset))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "milo-serve-disk-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn payload(json: &str, hash: Option<u64>) -> CachedResult {
        CachedResult {
            json: json.to_owned(),
            result_hash: hash,
        }
    }

    #[test]
    fn round_trips_and_dedups() {
        let dir = temp_dir("roundtrip");
        let disk = DiskCache::open(&dir).expect("opens");
        assert!(disk.is_empty());
        assert!(disk.append(7, &payload("{\"a\": 1}", Some(0xbeef))));
        assert!(
            !disk.append(7, &payload("{\"a\": 1}", Some(0xbeef))),
            "same key appends once"
        );
        assert!(disk.append(9, &payload("{\"b\": [1, 2]}", None)));
        assert_eq!(disk.len(), 2);
        let got = disk.get(7).expect("key 7 replays");
        assert_eq!(got.json, "{\"a\": 1}");
        assert_eq!(got.result_hash, Some(0xbeef));
        let got = disk.get(9).expect("key 9 replays");
        assert_eq!(got.json, "{\"b\": [1, 2]}");
        assert_eq!(got.result_hash, None);
        assert!(disk.get(8).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_start_reloads_via_the_index() {
        let dir = temp_dir("warm");
        {
            let disk = DiskCache::open(&dir).expect("opens");
            for k in 0..20u64 {
                assert!(disk.append(k, &payload(&format!("{{\"k\": {k}}}"), Some(k))));
            }
        }
        let disk = DiskCache::open(&dir).expect("reopens");
        assert_eq!(disk.len(), 20, "index survives restart");
        for k in 0..20u64 {
            let got = disk.get(k).expect("replays after restart");
            assert_eq!(got.json, format!("{{\"k\": {k}}}"));
            assert_eq!(got.result_hash, Some(k));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_index_rebuilds_from_data_scan() {
        let dir = temp_dir("rebuild");
        {
            let disk = DiskCache::open(&dir).expect("opens");
            disk.append(1, &payload("{\"x\": true}", None));
            disk.append(2, &payload("{\"y\": false}", Some(3)));
        }
        std::fs::remove_file(dir.join("exact.idx")).expect("drops index");
        let disk = DiskCache::open(&dir).expect("reopens without index");
        assert_eq!(disk.len(), 2, "data scan recovers every record");
        assert_eq!(disk.get(1).map(|p| p.json), Some("{\"x\": true}".into()));
        assert_eq!(disk.get(2).and_then(|p| p.result_hash), Some(3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = temp_dir("torn");
        {
            let disk = DiskCache::open(&dir).expect("opens");
            disk.append(1, &payload("{\"keep\": 1}", None));
            disk.append(2, &payload("{\"gone\": 2}", None));
        }
        // Chop the last record mid-payload and drop the index, as a
        // crash between data write and index write would leave things.
        let data_path = dir.join("exact.dat");
        let len = std::fs::metadata(&data_path).expect("metadata").len();
        let data = OpenOptions::new()
            .write(true)
            .open(&data_path)
            .expect("opens data");
        data.set_len(len - 5).expect("tears the tail");
        std::fs::remove_file(dir.join("exact.idx")).expect("drops index");

        let disk = DiskCache::open(&dir).expect("recovers");
        assert_eq!(disk.len(), 1, "only the intact record survives");
        assert_eq!(disk.get(1).map(|p| p.json), Some("{\"keep\": 1}".into()));
        assert!(disk.get(2).is_none());
        // The store keeps working after recovery.
        assert!(disk.append(3, &payload("{\"new\": 3}", None)));
        assert_eq!(disk.get(3).map(|p| p.json), Some("{\"new\": 3}".into()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
