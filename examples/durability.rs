//! The durability layer, end to end: atomic saves, fault injection,
//! corruption detection, and lenient quarantine.
//!
//! ```console
//! $ cargo run --release --example durability
//! ```

use std::fs;

use xsdb::{Database, FaultyVfs, LoadPolicy, Store};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("xsdb-durability-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    let mut db = Database::new();
    db.register_schema_text(
        "notes",
        r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
             <xs:element name="note" type="xs:string"/>
           </xs:schema>"#,
    )?;
    db.insert("memo", "notes", "<note>pick up milk</note>")?;
    db.insert("todo", "notes", "<note>write the report</note>")?;

    // 1. An atomic save: generation directory + CURRENT commit pointer.
    //    The store mirrors the directory, so later saves write only
    //    what changed.
    let mut store = Store::new(&dir);
    store.save(&db)?;
    println!("saved to {}", dir.display());
    let current = fs::read_to_string(dir.join("CURRENT"))?;
    println!("CURRENT: {}", current.trim_end());

    // 2. Saving again with nothing changed is a no-op: zero write
    //    operations reach the disk and the generation stays put.
    let clean = FaultyVfs::counting();
    store.save_vfs(&db, &clean)?;
    println!("\nclean re-save: {} write operations (incremental no-op)", clean.write_ops());

    // 3. Update one node, then crash the (incremental) save at every
    //    other operation; the directory always loads as one complete
    //    state — the old text or the new, never a torn hybrid.
    db.execute_update("memo", r#"replace value of node /note with "pick up oat milk""#)?;
    let total = {
        let counter = FaultyVfs::counting();
        store.save_vfs(&db, &counter)?;
        counter.ops()
    };
    println!("\nthe one-node update cost {total} VFS operations; crashing a few:");
    for k in (0..total).step_by(2) {
        db.execute_update("memo", &format!(r#"replace value of node /note with "crash run {k}""#))?;
        let vfs = FaultyVfs::crash_at(k);
        let result = store.save_vfs(&db, &vfs);
        let loaded = Database::load_dir(&dir)?;
        println!(
            "  crash at op {k:>2}: save {}, reload has {} documents, memo = {:?}",
            if result.is_ok() { "committed" } else { "aborted " },
            loaded.len(),
            loaded.query("memo", "/note")?[0],
        );
        // Reopen cleanly before the next round.
        (store, db, _) = Store::open(&dir, LoadPolicy::Strict)?;
    }

    // 4. Flip one byte in a stored document's block map (the `.xsp`
    //    data file also detects flips, but only on its *live* pages —
    //    the map is all live): strict load refuses with a typed
    //    error, lenient load quarantines just that document.
    let current = fs::read_to_string(dir.join("CURRENT"))?;
    let gen = current.split(' ').nth(1).expect("CURRENT format");
    let victim = dir.join(gen).join("documents").join("memo.xspm");
    let mut bytes = fs::read(&victim)?;
    bytes[10] ^= 0x01;
    fs::write(&victim, &bytes)?;

    println!("\nflipped one bit in {}:", victim.display());
    match Database::load_dir(&dir) {
        Err(e) => println!("  strict  : refused — {e}"),
        Ok(_) => unreachable!("checksum chain must catch a bit flip"),
    }
    let (survivors, report) = Database::load_dir_report(&dir, LoadPolicy::Lenient)?;
    println!(
        "  lenient : loaded {} of 2 documents; quarantined {:?} ({})",
        survivors.len(),
        report.quarantined[0].name,
        report.quarantined[0].error
    );

    fs::remove_dir_all(&dir)?;
    Ok(())
}
