// Copyright 2026 The SemTree Authors
//
// Random multiple-inheritance taxonomies for property and equivalence
// tests.

#ifndef SEMTREE_TESTS_RANDOM_TAXONOMY_H_
#define SEMTREE_TESTS_RANDOM_TAXONOMY_H_

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "ontology/taxonomy.h"

namespace semtree {

/// `concepts` concepts named c0, c1, ...; each hangs under one earlier
/// concept and, one time in five, under a second one too.
inline Taxonomy RandomTaxonomy(size_t concepts, uint64_t seed) {
  Taxonomy tax;
  Rng rng(seed);
  for (size_t i = 0; i < concepts; ++i) {
    std::string name = "c" + std::to_string(i);
    // Parent drawn from already-created concepts (biased toward the
    // shallow ones for a bushy DAG).
    std::vector<std::string> parents;
    if (i > 0) {
      parents.push_back("c" + std::to_string(rng.Uniform(i)));
      if (i > 4 && rng.Bernoulli(0.2)) {
        parents.push_back("c" + std::to_string(rng.Uniform(i)));
      }
    }
    auto added = tax.AddConcept(name, parents);
    EXPECT_TRUE(added.ok());
  }
  EXPECT_TRUE(tax.Validate().ok());
  return tax;
}

}  // namespace semtree

#endif  // SEMTREE_TESTS_RANDOM_TAXONOMY_H_
