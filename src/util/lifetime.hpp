// SC_LIFETIMEBOUND: compiler-enforced lifetime annotation for accessors
// that return a pointer/reference into *this (Slab::get, SlabMap::find,
// FlatMap::find/at, ...).
//
// Under Clang, [[clang::lifetimebound]] makes the compiler reject the
// intra-statement half of the PR 8 bug class at -Werror=dangling:
//
//     const PolicyTag* tag = tags_by_value().find(key);
//     //                     ^ temporary SlabMap owner dies here
//
// The cross-statement half (pin, mutate, then use) is what
// tools/softcell_analyze.py's rvalue-snapshot-deref / handle-across-
// mutation checkers cover (DESIGN.md §17).  GCC has no equivalent
// attribute and warns on unknown attribute namespaces, so the macro
// expands to nothing there -- the annotations must compile warning-free
// under both toolchains (tier1 builds GCC by default, Clang in the
// thread-safety stage).
//
// Placement rule: after the cv-qualifier of a member function (binds the
// return value's lifetime to *this), or directly after a parameter name
// (binds to that argument).
#pragma once

#if defined(__has_cpp_attribute)
#if __has_cpp_attribute(clang::lifetimebound)
#define SC_LIFETIMEBOUND [[clang::lifetimebound]]
#endif
#endif

#ifndef SC_LIFETIMEBOUND
#define SC_LIFETIMEBOUND
#endif
