#include "partition/partition_lattice.h"

#include <unordered_map>
#include <utility>

#include "partition/dense.h"

namespace psem {

std::vector<LatticeElem> PartitionClosure::AssignmentFor(
    const ExprArena& arena) const {
  std::vector<LatticeElem> assignment(arena.num_attrs(),
                                      FiniteLattice::kNoElem);
  for (std::size_t i = 0; i < atom_name.size(); ++i) {
    auto id = arena.attr_names().Lookup(atom_name[i]);
    if (id.has_value()) assignment[*id] = atom_elem[i];
  }
  return assignment;
}

Result<PartitionClosure> ClosePartitions(std::vector<Partition> atoms,
                                         std::vector<std::string> names,
                                         std::size_t max_elements) {
  if (atoms.empty()) {
    return Status::InvalidArgument("need at least one generator partition");
  }
  if (names.size() != atoms.size()) {
    return Status::InvalidArgument("names must parallel atoms");
  }
  // Work in the dense representation over the union of the generators'
  // populations: the closure loop and the meet/join tables are both
  // all-pairs sweeps, exactly the shape the kernels are built for.
  std::vector<Elem> pop;
  for (const Partition& a : atoms) {
    pop.insert(pop.end(), a.population().begin(), a.population().end());
  }
  PartitionUniverse universe(std::move(pop));
  DenseOps ops;

  std::vector<DensePartition> elements;
  std::unordered_map<DensePartition, LatticeElem, DensePartitionHash> index;
  auto add = [&](const DensePartition& p) -> LatticeElem {
    auto it = index.find(p);
    if (it != index.end()) return it->second;
    LatticeElem id = static_cast<LatticeElem>(elements.size());
    elements.push_back(p);
    index.emplace(p, id);
    return id;
  };
  std::vector<LatticeElem> atom_elem;
  atom_elem.reserve(atoms.size());
  for (const Partition& a : atoms) atom_elem.push_back(add(universe.Densify(a)));

  // Closure: repeatedly combine all pairs until stable.
  DensePartition prod, sum;
  for (std::size_t frontier = 0; frontier < elements.size();) {
    std::size_t snapshot = elements.size();
    for (std::size_t i = 0; i < snapshot; ++i) {
      for (std::size_t j = (i < frontier ? frontier : i); j < snapshot; ++j) {
        ops.Product(elements[i], elements[j], &prod);
        add(prod);
        ops.Sum(elements[i], elements[j], &sum);
        add(sum);
        if (elements.size() > max_elements) {
          return Status::ResourceExhausted(
              "partition closure exceeds " + std::to_string(max_elements) +
              " elements");
        }
      }
    }
    frontier = snapshot;
    if (elements.size() == snapshot) break;
  }

  const std::size_t n = elements.size();
  std::vector<std::vector<LatticeElem>> meet(n, std::vector<LatticeElem>(n));
  std::vector<std::vector<LatticeElem>> join(n, std::vector<LatticeElem>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      ops.Product(elements[i], elements[j], &prod);
      ops.Sum(elements[i], elements[j], &sum);
      LatticeElem m = index.at(prod);
      LatticeElem s = index.at(sum);
      meet[i][j] = meet[j][i] = m;
      join[i][j] = join[j][i] = s;
    }
  }
  std::vector<std::string> elem_names(n);
  for (std::size_t i = 0; i < atom_elem.size(); ++i) {
    elem_names[atom_elem[i]] = names[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (elem_names[i].empty()) elem_names[i] = 'p' + std::to_string(i);
  }
  std::vector<Partition> sparse_elements;
  sparse_elements.reserve(n);
  for (const DensePartition& d : elements) {
    sparse_elements.push_back(universe.Sparsify(d));
  }
  PartitionClosure out{
      FiniteLattice(std::move(meet), std::move(join), std::move(elem_names)),
      std::move(sparse_elements), std::move(atom_elem), std::move(names)};
  return out;
}

Result<PartitionClosure> InterpretationLattice(
    const PartitionInterpretation& interp, std::size_t max_elements) {
  std::vector<Partition> atoms;
  std::vector<std::string> names;
  for (const std::string& a : interp.attribute_names()) {
    PSEM_ASSIGN_OR_RETURN(Partition p, interp.AtomicPartition(a));
    atoms.push_back(std::move(p));
    names.push_back(a);
  }
  return ClosePartitions(std::move(atoms), std::move(names), max_elements);
}

namespace {

// Enumerates all partitions of {0..k-1} via restricted growth strings. A
// restricted growth string IS the canonical first-occurrence labeling, so
// each one is a DensePartition verbatim.
void EnumerateRgs(std::size_t k, std::vector<uint32_t>* rgs, uint32_t max_used,
                  std::vector<DensePartition>* out) {
  std::size_t i = rgs->size();
  if (i == k) {
    out->push_back(DensePartition{*rgs, max_used + 1,
                                  static_cast<uint32_t>(k)});
    return;
  }
  for (uint32_t label = 0; label <= max_used + 1 && label < k; ++label) {
    rgs->push_back(label);
    EnumerateRgs(k, rgs, std::max(max_used, label), out);
    rgs->pop_back();
  }
}

}  // namespace

FullPartitionLatticeResult FullPartitionLattice(std::size_t k) {
  PartitionUniverse universe = PartitionUniverse::Dense(k);
  std::vector<DensePartition> elements;
  if (k == 0) {
    elements.push_back(DensePartition{});
  } else {
    std::vector<uint32_t> rgs{0};
    EnumerateRgs(k, &rgs, 0, &elements);
  }
  std::unordered_map<DensePartition, LatticeElem, DensePartitionHash> index;
  for (std::size_t i = 0; i < elements.size(); ++i) {
    index.emplace(elements[i], static_cast<LatticeElem>(i));
  }
  const std::size_t n = elements.size();
  std::vector<std::vector<LatticeElem>> meet(n, std::vector<LatticeElem>(n));
  std::vector<std::vector<LatticeElem>> join(n, std::vector<LatticeElem>(n));
  DenseOps ops;
  DensePartition prod, sum;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      ops.Product(elements[i], elements[j], &prod);
      ops.Sum(elements[i], elements[j], &sum);
      LatticeElem m = index.at(prod);
      LatticeElem s = index.at(sum);
      meet[i][j] = meet[j][i] = m;
      join[i][j] = join[j][i] = s;
    }
  }
  std::vector<Partition> sparse_elements;
  sparse_elements.reserve(n);
  for (const DensePartition& d : elements) {
    sparse_elements.push_back(universe.Sparsify(d));
  }
  return FullPartitionLatticeResult{FiniteLattice(std::move(meet),
                                                  std::move(join)),
                                    std::move(sparse_elements),
                                    std::move(elements)};
}

}  // namespace psem
