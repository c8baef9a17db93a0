//! A calculus query interns its quantifier domains into a pool owned by
//! the call, never into the process-global pool.
//!
//! This file holds a single test so that no other test shares its
//! process: the global pool's length is then moved by nothing but the
//! calls under test.

use uset_calculus::eval::enumerate_rtype;
use uset_calculus::{eval_query, CalcConfig, CalcQuery, CalcTerm, Formula};
use uset_object::{atom, Database, Instance, Pool, RType};

#[test]
fn nested_forall_leaves_the_global_pool_unchanged() {
    // { s/{{U}} | D(s) ∧ ∀x/{{{U}}} ¬R(x) } over two atoms: the ∀ ranges
    // over 2^16 = 65 536 members and R holds atoms only, so the answer is
    // all 16 members of D
    let nested2 = RType::Set(Box::new(RType::Set(Box::new(RType::Atomic))));
    let nested3 = RType::Set(Box::new(nested2.clone()));
    let q = CalcQuery::new(
        "s",
        nested2.clone(),
        Formula::Pred("D".into(), CalcTerm::var("s")).and(
            Formula::Pred("R".into(), CalcTerm::var("x"))
                .not()
                .forall("x", nested3),
        ),
    );
    let mut db = Database::empty();
    db.set("R", Instance::from_rows([[atom(3)], [atom(4)]]));
    let d = enumerate_rtype(&nested2, &db.adom(), &CalcConfig::default()).unwrap();
    db.set("D", Instance::from_values(d));

    let before = Pool::global().len();
    for call in 0..2 {
        let answer = eval_query(&q, &db, &CalcConfig::default()).unwrap();
        assert_eq!(answer.len(), 16, "call {call}");
        assert_eq!(answer, db.get("D"), "call {call}");
        assert_eq!(Pool::global().len(), before, "call {call}");
    }
}
