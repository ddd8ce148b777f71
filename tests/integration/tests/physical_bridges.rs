//! Property tests for the physical bridges: `storage_to_document` (g
//! computed from descriptors) and `storage_to_tree` (XDM rebuilt from
//! storage) agree with the logical serializer on generated documents,
//! before and after updates.

use proptest::prelude::*;
use xsdb::storage::XmlStorage;
use xsdb::xdm::check_order_axioms;
use xsdb::{content_equal, serialize_tree, storage_to_document, storage_to_tree};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn physical_g_equals_logical_g(books in 1usize..30, seed in 0u64..1000) {
        let (store, doc) = bench::build_library_tree(books, books / 2, seed);
        let storage = XmlStorage::from_tree(&store, doc);
        let physical = storage_to_document(&storage).unwrap();
        let logical = serialize_tree(&store, doc);
        prop_assert!(content_equal(&physical, &logical));
    }

    #[test]
    fn rebuilt_trees_satisfy_the_order_axioms(books in 1usize..20, seed in 0u64..1000) {
        let (store, doc) = bench::build_library_tree(books, books / 2, seed);
        let storage = XmlStorage::from_tree(&store, doc);
        let (rebuilt, rebuilt_doc) = storage_to_tree(&storage);
        prop_assert_eq!(check_order_axioms(&rebuilt, rebuilt_doc), None);
        // Rebuilt tree re-materializes to the same content.
        let storage2 = XmlStorage::from_tree(&rebuilt, rebuilt_doc);
        prop_assert_eq!(storage2.check_invariants(), None);
        prop_assert!(content_equal(
            &storage_to_document(&storage).unwrap(),
            &storage_to_document(&storage2).unwrap()
        ));
    }

    #[test]
    fn bridges_agree_after_random_updates(
        books in 1usize..12,
        inserts in 0usize..20,
        deletes in 0usize..5,
        seed in 0u64..1000,
    ) {
        let (store, doc) = bench::build_library_tree(books, 1, seed);
        let mut storage = XmlStorage::from_tree_with_capacity(&store, doc, 4);
        let lib = storage.children(storage.root())[0];
        for i in 0..inserts {
            let b = storage.insert_element(lib, None, "book").unwrap();
            let t = storage.insert_element(b, None, "title").unwrap();
            storage.insert_text(t, None, format!("n{i}")).unwrap();
        }
        for _ in 0..deletes {
            let kids = storage.children(lib);
            if kids.len() > 1 {
                storage.delete(kids[kids.len() / 2]).unwrap();
            }
        }
        prop_assert_eq!(storage.check_invariants(), None);
        let physical = storage_to_document(&storage).unwrap();
        let (rebuilt, rebuilt_doc) = storage_to_tree(&storage);
        let via_tree = serialize_tree(&rebuilt, rebuilt_doc);
        prop_assert!(content_equal(&physical, &via_tree));
    }
}
