// Copyright 2026 The SemTree Authors

#include "ontology/taxonomy.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace semtree {

Taxonomy::Taxonomy(std::string root_name) {
  Node root;
  root.name = std::move(root_name);
  root.ancestors = {{0, 0}};
  nodes_.push_back(std::move(root));
  by_name_[nodes_[0].name] = 0;
}

Result<ConceptId> Taxonomy::AddConcept(
    std::string_view name, const std::vector<std::string>& parents) {
  std::vector<ConceptId> parent_ids;
  parent_ids.reserve(parents.size());
  for (const std::string& p : parents) {
    SEMTREE_ASSIGN_OR_RETURN(ConceptId id, Find(p));
    parent_ids.push_back(id);
  }
  return AddConceptUnder(name, parent_ids);
}

Result<ConceptId> Taxonomy::AddConceptUnder(
    std::string_view name, const std::vector<ConceptId>& parents) {
  std::string key(name);
  if (key.empty()) {
    return Status::InvalidArgument("concept name must be non-empty");
  }
  if (by_name_.count(key) || aliases_.count(key)) {
    return Status::AlreadyExists(
        StringPrintf("concept '%s' already exists", key.c_str()));
  }
  for (ConceptId p : parents) {
    if (p >= nodes_.size()) {
      return Status::NotFound("unknown parent concept id");
    }
  }
  ConceptId id = static_cast<ConceptId>(nodes_.size());
  Node node;
  node.name = key;
  node.parents = parents;
  if (node.parents.empty()) node.parents.push_back(root());
  // Deduplicate parents while preserving order.
  std::vector<ConceptId> dedup;
  for (ConceptId p : node.parents) {
    if (std::find(dedup.begin(), dedup.end(), p) == dedup.end()) {
      dedup.push_back(p);
    }
  }
  node.parents = std::move(dedup);
  node.ancestors = ClosureFromParents(id, node.parents);
  nodes_.push_back(std::move(node));
  max_depth_ = std::max(max_depth_, Depth(id));
  by_name_[key] = id;
  for (ConceptId p : nodes_[id].parents) nodes_[p].children.push_back(id);
  ic_.valid.store(false, std::memory_order_relaxed);
  ++generation_;
  return id;
}

Status Taxonomy::AddParent(ConceptId child, ConceptId parent) {
  if (child >= nodes_.size() || parent >= nodes_.size()) {
    return Status::NotFound("unknown concept id");
  }
  if (child == root()) {
    return Status::InvalidArgument("the root cannot gain a parent");
  }
  auto& parents = nodes_[child].parents;
  if (std::find(parents.begin(), parents.end(), parent) != parents.end()) {
    return Status::AlreadyExists("edge already present");
  }
  if (WouldCreateCycle(child, parent)) {
    return Status::FailedPrecondition(StringPrintf(
        "adding %s -> %s would create a cycle",
        nodes_[child].name.c_str(), nodes_[parent].name.c_str()));
  }
  parents.push_back(parent);
  nodes_[parent].children.push_back(child);
  // A new path from any descendant d of `child` runs d ... child ->
  // parent ... x. Neither leg can use the new edge without a cycle, so
  // the current closures give both legs exactly. `parent` is not a
  // descendant of `child`, so `above` stays put in the loop.
  const std::vector<Ancestor>& above = nodes_[parent].ancestors;
  max_depth_ = 0;
  for (ConceptId d = 0; d < nodes_.size(); ++d) {
    if (const Ancestor* via_child = FindAncestor(d, child)) {
      MergeAncestors(&nodes_[d].ancestors, above, via_child->up_edges + 1);
    }
    max_depth_ = std::max(max_depth_, Depth(d));
  }
  ic_.valid.store(false, std::memory_order_relaxed);
  ++generation_;
  return Status::OK();
}

Status Taxonomy::AddSynonym(std::string_view alias, ConceptId canonical) {
  if (canonical >= nodes_.size()) {
    return Status::NotFound("unknown canonical concept");
  }
  std::string key(alias);
  if (key.empty()) {
    return Status::InvalidArgument("alias must be non-empty");
  }
  if (by_name_.count(key) || aliases_.count(key)) {
    return Status::AlreadyExists(
        StringPrintf("name '%s' already taken", key.c_str()));
  }
  aliases_[key] = canonical;
  ++generation_;
  return Status::OK();
}

Status Taxonomy::AddAntonym(ConceptId a, ConceptId b) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    return Status::NotFound("unknown concept id");
  }
  if (a == b) {
    return Status::InvalidArgument("a concept cannot be its own antonym");
  }
  if (AreAntonyms(a, b)) {
    return Status::AlreadyExists("antonym pair already present");
  }
  nodes_[a].antonyms.push_back(b);
  nodes_[b].antonyms.push_back(a);
  ++generation_;
  return Status::OK();
}

Status Taxonomy::AddFrequency(ConceptId c, uint64_t count) {
  if (c >= nodes_.size()) return Status::NotFound("unknown concept id");
  nodes_[c].frequency += count;
  ic_.valid.store(false, std::memory_order_relaxed);
  ++generation_;
  return Status::OK();
}

Result<ConceptId> Taxonomy::Find(std::string_view name) const {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  auto alias_it = aliases_.find(name);
  if (alias_it != aliases_.end()) return alias_it->second;
  return Status::NotFound(StringPrintf("concept '%.*s' not in taxonomy",
                                       static_cast<int>(name.size()),
                                       name.data()));
}

bool Taxonomy::Contains(std::string_view name) const {
  return Find(name).ok();
}

std::vector<std::string> Taxonomy::ConceptNames() const {
  std::vector<std::string> names;
  names.reserve(nodes_.size());
  for (const Node& node : nodes_) names.push_back(node.name);
  return names;
}

std::vector<std::pair<std::string, ConceptId>> Taxonomy::Synonyms() const {
  std::vector<std::pair<std::string, ConceptId>> out(aliases_.begin(),
                                                     aliases_.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<ConceptId, ConceptId>> Taxonomy::AntonymPairs()
    const {
  std::vector<std::pair<ConceptId, ConceptId>> pairs;
  for (ConceptId c = 0; c < nodes_.size(); ++c) {
    for (ConceptId other : nodes_[c].antonyms) {
      if (c < other) pairs.emplace_back(c, other);
    }
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

void Taxonomy::MergeAncestors(std::vector<Ancestor>* closure,
                              const std::vector<Ancestor>& above,
                              uint32_t edges) {
  for (const Ancestor& a : above) {
    closure->push_back({a.id, a.up_edges + edges});
  }
  // Sort by id, fewest edges first, then keep the first of each id.
  std::sort(closure->begin(), closure->end(),
            [](const Ancestor& x, const Ancestor& y) {
              return x.id != y.id ? x.id < y.id : x.up_edges < y.up_edges;
            });
  closure->erase(std::unique(closure->begin(), closure->end(),
                             [](const Ancestor& x, const Ancestor& y) {
                               return x.id == y.id;
                             }),
                 closure->end());
}

std::vector<Taxonomy::Ancestor> Taxonomy::ClosureFromParents(
    ConceptId c, const std::vector<ConceptId>& parents) const {
  std::vector<Ancestor> closure = {{c, 0}};
  for (ConceptId p : parents) {
    MergeAncestors(&closure, nodes_[p].ancestors, 1);
  }
  return closure;
}

const Taxonomy::Ancestor* Taxonomy::FindAncestor(ConceptId descendant,
                                                 ConceptId ancestor) const {
  const std::vector<Ancestor>& up = nodes_[descendant].ancestors;
  auto it = std::lower_bound(
      up.begin(), up.end(), ancestor,
      [](const Ancestor& a, ConceptId id) { return a.id < id; });
  return it != up.end() && it->id == ancestor ? &*it : nullptr;
}

size_t Taxonomy::Depth(ConceptId c) const {
  // The root has the smallest id, so it heads every closure.
  return nodes_[c].ancestors.front().up_edges;
}

size_t Taxonomy::MaxDepth() const { return max_depth_; }

bool Taxonomy::IsAncestor(ConceptId ancestor, ConceptId descendant) const {
  return FindAncestor(descendant, ancestor) != nullptr;
}

std::vector<ConceptId> Taxonomy::Ancestors(ConceptId c) const {
  std::vector<ConceptId> out;
  out.reserve(nodes_[c].ancestors.size());
  for (const Ancestor& a : nodes_[c].ancestors) out.push_back(a.id);
  return out;
}

template <typename Fn>
void Taxonomy::ForEachCommonAncestor(ConceptId a, ConceptId b,
                                     Fn fn) const {
  const std::vector<Ancestor>& ua = nodes_[a].ancestors;
  const std::vector<Ancestor>& ub = nodes_[b].ancestors;
  for (size_t i = 0, j = 0; i < ua.size() && j < ub.size();) {
    if (ua[i].id < ub[j].id) {
      ++i;
    } else if (ub[j].id < ua[i].id) {
      ++j;
    } else {
      fn(ua[i++], ub[j++]);
    }
  }
}

ConceptId Taxonomy::LowestCommonSubsumer(ConceptId a, ConceptId b) const {
  ConceptId best = root();
  size_t best_depth = 0;
  // Ids come in increasing order and only a strictly deeper one
  // replaces the best, so ties stay with the smallest id.
  ForEachCommonAncestor(a, b, [&](const Ancestor& x, const Ancestor&) {
    size_t d = Depth(x.id);
    if (d > best_depth) {
      best = x.id;
      best_depth = d;
    }
  });
  return best;
}

size_t Taxonomy::ShortestPathEdges(ConceptId a, ConceptId b) const {
  // The shortest connecting path goes through a common ancestor, so
  // dist = min over common c of up_a(c) + up_b(c).
  size_t best = std::numeric_limits<size_t>::max();
  ForEachCommonAncestor(a, b, [&](const Ancestor& x, const Ancestor& y) {
    best = std::min<size_t>(best, x.up_edges + y.up_edges);
  });
  return best;
}

size_t Taxonomy::UpEdges(ConceptId descendant, ConceptId ancestor) const {
  const Ancestor* a = FindAncestor(descendant, ancestor);
  return a != nullptr ? a->up_edges : std::numeric_limits<size_t>::max();
}

void Taxonomy::EnsureInformationContent() const {
  if (ic_.valid.load(std::memory_order_acquire)) return;
  MutexLock lock(ic_.mu);
  if (ic_.valid.load(std::memory_order_relaxed)) return;
  // Subtree mass: each concept contributes its own frequency (or 1 under
  // the uniform fallback) to itself and every ancestor.
  uint64_t total_observed = 0;
  for (const Node& node : nodes_) total_observed += node.frequency;
  const bool uniform = total_observed == 0;

  std::vector<double> mass(nodes_.size(), 0.0);
  for (ConceptId c = 0; c < nodes_.size(); ++c) {
    double own = uniform ? 1.0 : static_cast<double>(nodes_[c].frequency);
    if (own == 0.0) continue;
    for (const Ancestor& anc : nodes_[c].ancestors) mass[anc.id] += own;
  }
  double root_mass = mass[root()];
  ic_.values.assign(nodes_.size(), 0.0);
  ic_.max = 0.0;
  for (ConceptId c = 0; c < nodes_.size(); ++c) {
    double p = (root_mass > 0.0) ? mass[c] / root_mass : 0.0;
    // Unobserved concepts get the maximal finite IC via Laplace-style
    // smoothing with half a count.
    if (p <= 0.0) p = 0.5 / (root_mass + 1.0);
    ic_.values[c] = -std::log(p);
    ic_.max = std::max(ic_.max, ic_.values[c]);
  }
  ic_.valid.store(true, std::memory_order_release);
}

double Taxonomy::InformationContent(ConceptId c) const {
  EnsureInformationContent();
  return ic_.values[c];
}

double Taxonomy::MaxInformationContent() const {
  EnsureInformationContent();
  return ic_.max;
}

bool Taxonomy::AreAntonyms(ConceptId a, ConceptId b) const {
  if (a >= nodes_.size() || b >= nodes_.size()) return false;
  const auto& ants = nodes_[a].antonyms;
  return std::find(ants.begin(), ants.end(), b) != ants.end();
}

std::vector<ConceptId> Taxonomy::AntonymsOf(ConceptId c) const {
  if (c >= nodes_.size()) return {};
  return nodes_[c].antonyms;
}

std::vector<std::string> Taxonomy::AntonymNamesOf(
    std::string_view name) const {
  auto id = Find(name);
  if (!id.ok()) return {};
  std::vector<std::string> out;
  for (ConceptId a : AntonymsOf(*id)) out.push_back(nodes_[a].name);
  std::sort(out.begin(), out.end());
  return out;
}

bool Taxonomy::WouldCreateCycle(ConceptId child, ConceptId parent) const {
  // A cycle appears iff child is already an ancestor of parent.
  return IsAncestor(child, parent);
}

Status Taxonomy::Validate() const {
  // Parent/child edge symmetry.
  for (ConceptId c = 0; c < nodes_.size(); ++c) {
    for (ConceptId p : nodes_[c].parents) {
      if (p >= nodes_.size()) {
        return Status::Corruption("dangling parent id");
      }
      const auto& siblings = nodes_[p].children;
      if (std::find(siblings.begin(), siblings.end(), c) ==
          siblings.end()) {
        return Status::Corruption(StringPrintf(
            "edge %s->%s missing child link", nodes_[c].name.c_str(),
            nodes_[p].name.c_str()));
      }
    }
    if (c != root() && nodes_[c].parents.empty()) {
      return Status::Corruption(
          StringPrintf("concept '%s' is disconnected",
                       nodes_[c].name.c_str()));
    }
  }
  // Closures: each concept's ancestor array is the one its parents'
  // arrays give, and the root heads it, so every concept reaches the
  // root.
  for (ConceptId c = 0; c < nodes_.size(); ++c) {
    const std::vector<Ancestor>& up = nodes_[c].ancestors;
    std::vector<Ancestor> expected = ClosureFromParents(c, nodes_[c].parents);
    if (up.empty() || up.front().id != root() ||
        !std::equal(up.begin(), up.end(), expected.begin(), expected.end(),
                    [](const Ancestor& x, const Ancestor& y) {
                      return x.id == y.id && x.up_edges == y.up_edges;
                    })) {
      return Status::Corruption(StringPrintf(
          "concept '%s' has a stale ancestor array",
          nodes_[c].name.c_str()));
    }
  }
  // Antonym symmetry.
  for (ConceptId c = 0; c < nodes_.size(); ++c) {
    for (ConceptId other : nodes_[c].antonyms) {
      if (!AreAntonyms(other, c)) {
        return Status::Corruption("asymmetric antonym relation");
      }
    }
  }
  // Aliases resolve to live concepts and do not shadow concepts.
  for (const auto& [alias, target] : aliases_) {
    if (target >= nodes_.size()) {
      return Status::Corruption("alias targets unknown concept");
    }
    if (by_name_.count(alias)) {
      return Status::Corruption("alias shadows a concept name");
    }
  }
  return Status::OK();
}

}  // namespace semtree
