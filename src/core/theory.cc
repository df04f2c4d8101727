#include "core/theory.h"

#include "partition/eval_context.h"

namespace psem {

Status PdTheory::AddParsed(std::string_view text) {
  PSEM_ASSIGN_OR_RETURN(Pd pd, arena_->ParsePd(text));
  Add(pd);
  return Status::OK();
}

bool PdTheory::Implies(const Pd& query) { return engine_.Implies(query); }

std::vector<bool> PdTheory::BatchImplies(std::span<const Pd> queries) {
  return engine_.BatchImplies(queries);
}

Result<std::vector<bool>> PdTheory::BatchImpliesParsed(
    std::span<const std::string> texts) {
  std::vector<Pd> queries;
  queries.reserve(texts.size());
  for (const std::string& text : texts) {
    PSEM_ASSIGN_OR_RETURN(Pd pd, arena_->ParsePd(text));
    queries.push_back(pd);
  }
  return BatchImplies(queries);
}

Result<bool> PdTheory::ImpliesParsed(std::string_view text) {
  PSEM_ASSIGN_OR_RETURN(Pd pd, arena_->ParsePd(text));
  return Implies(pd);
}

bool PdTheory::Equivalent(const Pd& a, const Pd& b) {
  PdImplicationEngine with_a(arena_.get(), pds());
  with_a.AddConstraint(a);
  if (!with_a.Implies(b)) return false;
  PdImplicationEngine with_b(arena_.get(), pds());
  with_b.AddConstraint(b);
  return with_b.Implies(a);
}

bool PdTheory::IsIdentity(const Pd& pd) const {
  WhitmanMemo decider(arena_.get());
  return decider.IsIdentity(pd);
}

Result<Proof> PdTheory::Explain(const Pd& query) {
  ProvenanceEngine prover(arena_.get(), pds());
  return prover.Prove(query);
}

Result<std::string> PdTheory::ExplainText(std::string_view query_text) {
  PSEM_ASSIGN_OR_RETURN(Pd query, arena_->ParsePd(query_text));
  PSEM_ASSIGN_OR_RETURN(Proof proof, Explain(query));
  return RenderProof(*arena_, proof);
}

std::optional<CounterModel> PdTheory::FindCounterexample(
    const Pd& query, std::size_t max_population) const {
  return FindCounterModel(*arena_, pds(), query, max_population);
}

Result<bool> PdTheory::SatisfiedBy(const Database& db,
                                   const Relation& r) const {
  // Definition 7 per PD, with I(r) built once and one memo across E.
  if (r.empty()) return true;
  PSEM_ASSIGN_OR_RETURN(PartitionInterpretation interp,
                        CanonicalInterpretation(db, r));
  EvalContext ctx(*arena_, interp);
  for (const Pd& pd : pds()) {
    PSEM_ASSIGN_OR_RETURN(bool ok, ctx.Satisfies(pd));
    if (!ok) return false;
  }
  return true;
}

}  // namespace psem
