#include "analysis/lint.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "analysis/classify.h"
#include "analysis/inflationary.h"
#include "ast/printer.h"
#include "eval/forward.h"
#include "util/string_util.h"

namespace chronolog {

namespace {

struct LintContext {
  const Program& program;
  const Database& database;
  const LintOptions& options;
  const DependencyGraph& graph;
};

/// Atom-located diagnostic (falls back to the file-only span for
/// synthesised atoms).
Diagnostic AtomDiagnostic(const LintContext& ctx, int rule_index,
                          const Atom& atom, Severity severity,
                          const char* code, std::string message) {
  Diagnostic diag;
  diag.severity = severity;
  diag.code = code;
  diag.message = std::move(message);
  diag.rule_index = rule_index;
  diag.span = ResolveSpan(ctx.program, atom.loc);
  return diag;
}

std::string RuleLabel(std::size_t i) { return "rule " + std::to_string(i); }

// --------------------------------------------------------------------------
// safety (L001): range-restriction violations, naming the unbound variable.
// --------------------------------------------------------------------------

void SafetyPass(const LintContext& ctx, std::vector<Diagnostic>* out) {
  const std::vector<Rule>& rules = ctx.program.rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const Rule& rule = rules[i];
    for (VarId v : rule.UnsafeHeadVars()) {
      const std::string name = v < rule.var_names.size()
                                   ? rule.var_names[v]
                                   : "#" + std::to_string(v);
      out->push_back(MakeRuleDiagnostic(
          ctx.program, static_cast<int>(i), Severity::kError,
          lint_code::kUnsafeVariable,
          RuleLabel(i) + " for '" +
              ctx.program.vocab().predicate(rule.head.pred).name +
              "' is not range-restricted: head variable '" + name +
              "' does not occur in the body, so the rule has no "
              "domain-independent meaning (Section 3.3)"));
    }
  }
}

// --------------------------------------------------------------------------
// sorts (L002): temporal-argument misuse on the typed AST. Parsed programs
// cannot violate these (sort inference rejects them), but programmatically
// built rules — generators, transformations, FromParsedUnit callers — can.
// --------------------------------------------------------------------------

void SortsPass(const LintContext& ctx, std::vector<Diagnostic>* out) {
  const Vocabulary& vocab = ctx.program.vocab();
  const std::vector<Rule>& rules = ctx.program.rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const Rule& rule = rules[i];
    auto var_name = [&rule](VarId v) {
      return v < rule.var_names.size() ? rule.var_names[v]
                                       : "#" + std::to_string(v);
    };
    auto check_atom = [&](const Atom& atom, const char* where) {
      if (atom.pred == kInvalidPredicate ||
          atom.pred >= vocab.num_predicates()) {
        out->push_back(AtomDiagnostic(
            ctx, static_cast<int>(i), atom, Severity::kError,
            lint_code::kSortMisuse,
            RuleLabel(i) + " " + where + " references an undeclared "
            "predicate id"));
        return;
      }
      const PredicateInfo& info = vocab.predicate(atom.pred);
      if (atom.temporal() && !info.is_temporal) {
        out->push_back(AtomDiagnostic(
            ctx, static_cast<int>(i), atom, Severity::kError,
            lint_code::kSortMisuse,
            RuleLabel(i) + ": non-temporal predicate '" + info.name +
                "' is given a temporal term in its " + where +
                " occurrence; the '+1' successor applies only to the "
                "distinguished temporal argument (Section 3.1)"));
      } else if (!atom.temporal() && info.is_temporal) {
        out->push_back(AtomDiagnostic(
            ctx, static_cast<int>(i), atom, Severity::kError,
            lint_code::kSortMisuse,
            RuleLabel(i) + ": temporal predicate '" + info.name +
                "' is used without its distinguished temporal argument in "
                "its " + where + " occurrence"));
      }
      if (atom.args.size() != info.arity) {
        out->push_back(AtomDiagnostic(
            ctx, static_cast<int>(i), atom, Severity::kError,
            lint_code::kSortMisuse,
            RuleLabel(i) + ": '" + info.name + "' is used with " +
                std::to_string(atom.args.size()) +
                " non-temporal arguments but is declared with " +
                std::to_string(info.arity)));
      }
      if (atom.temporal()) {
        if (atom.time->depth() < 0) {
          out->push_back(AtomDiagnostic(
              ctx, static_cast<int>(i), atom, Severity::kError,
              lint_code::kSortMisuse,
              RuleLabel(i) + ": temporal term of '" + info.name +
                  "' has negative depth " +
                  std::to_string(atom.time->depth()) +
                  "; temporal terms are built from 0 by '+1' only"));
        }
        if (!atom.time->ground()) {
          VarId v = atom.time->var;
          if (v >= rule.num_vars() || !rule.temporal_vars[v]) {
            out->push_back(AtomDiagnostic(
                ctx, static_cast<int>(i), atom, Severity::kError,
                lint_code::kSortMisuse,
                RuleLabel(i) + ": variable '" + var_name(v) +
                    "' in the distinguished temporal position of '" +
                    info.name + "' is not of temporal sort"));
          }
        }
      }
      for (const NtTerm& t : atom.args) {
        if (!t.is_variable()) continue;
        if (t.id >= rule.num_vars()) {
          out->push_back(AtomDiagnostic(
              ctx, static_cast<int>(i), atom, Severity::kError,
              lint_code::kSortMisuse,
              RuleLabel(i) + ": '" + info.name +
                  "' references variable id " + std::to_string(t.id) +
                  " outside the rule's variable table"));
        } else if (rule.temporal_vars[t.id]) {
          out->push_back(AtomDiagnostic(
              ctx, static_cast<int>(i), atom, Severity::kError,
              lint_code::kSortMisuse,
              RuleLabel(i) + ": temporal variable '" + var_name(t.id) +
                  "' is used in a non-temporal argument position of '" +
                  info.name + "' (temporal terms may appear only in the "
                  "distinguished first position)"));
        }
      }
    };
    check_atom(rule.head, "head");
    for (const Atom& atom : rule.body) check_atom(atom, "body");
  }

  // Database tuples: arity and non-negative time.
  for (const GroundAtom& fact : ctx.database.facts()) {
    if (fact.pred == kInvalidPredicate || fact.pred >= vocab.num_predicates())
      continue;  // unrepresentable in diagnostics; Interpretation rejects it
    const PredicateInfo& info = vocab.predicate(fact.pred);
    if (fact.args.size() != info.arity) {
      out->push_back(MakeProgramDiagnostic(
          Severity::kError, lint_code::kSortMisuse,
          "database tuple " + GroundAtomToString(fact, vocab) + " has " +
              std::to_string(fact.args.size()) +
              " non-temporal arguments but '" + info.name +
              "' is declared with " + std::to_string(info.arity)));
    }
    if (info.is_temporal && fact.time < 0) {
      out->push_back(MakeProgramDiagnostic(
          Severity::kError, lint_code::kSortMisuse,
          "database tuple " + GroundAtomToString(fact, vocab) +
              " has negative time " + std::to_string(fact.time)));
    }
  }
}

// --------------------------------------------------------------------------
// singleton (L003): variables occurring exactly once.
// --------------------------------------------------------------------------

void SingletonPass(const LintContext& ctx, std::vector<Diagnostic>* out) {
  const std::vector<Rule>& rules = ctx.program.rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const Rule& rule = rules[i];
    std::unordered_map<VarId, int> counts;
    auto count_atom = [&counts](const Atom& atom) {
      if (atom.temporal() && !atom.time->ground()) ++counts[atom.time->var];
      for (const NtTerm& t : atom.args) {
        if (t.is_variable()) ++counts[t.id];
      }
    };
    count_atom(rule.head);
    for (const Atom& atom : rule.body) count_atom(atom);
    std::vector<VarId> singles;
    for (const auto& [v, n] : counts) {
      if (n == 1) singles.push_back(v);
    }
    std::sort(singles.begin(), singles.end());
    for (VarId v : singles) {
      const std::string name = v < rule.var_names.size()
                                   ? rule.var_names[v]
                                   : "#" + std::to_string(v);
      if (!name.empty() && name[0] == '_') continue;  // declared intentional
      out->push_back(MakeRuleDiagnostic(
          ctx.program, static_cast<int>(i), Severity::kWarning,
          lint_code::kSingletonVariable,
          RuleLabel(i) + ": variable '" + name +
              "' occurs only once; prefix it with '_' if the join is "
              "intentionally unconstrained"));
    }
  }
}

// --------------------------------------------------------------------------
// duplicate / subsumed (L004, L005): canonical-form comparison. Variables
// are renumbered by first occurrence (head first, body in written order),
// so the check is syntactic — alpha-equivalent rules are caught, reordered
// bodies are not ("trivially" duplicate/subsumed).
// --------------------------------------------------------------------------

std::string CanonicalAtomKey(const Atom& atom,
                             std::unordered_map<VarId, int>* renumber) {
  auto canon = [renumber](VarId v) {
    auto [it, inserted] = renumber->try_emplace(
        v, static_cast<int>(renumber->size()));
    (void)inserted;
    return it->second;
  };
  std::string key = "p" + std::to_string(atom.pred);
  if (atom.temporal()) {
    key += atom.time->ground()
               ? "@" + std::to_string(atom.time->offset)
               : "@V" + std::to_string(canon(atom.time->var)) + "+" +
                     std::to_string(atom.time->offset);
  }
  for (const NtTerm& t : atom.args) {
    key += t.is_constant() ? ",c" + std::to_string(t.id)
                           : ",V" + std::to_string(canon(t.id));
  }
  return key;
}

struct CanonicalRule {
  std::string head;
  std::vector<std::string> body;         // written order
  std::vector<std::string> body_sorted;  // for subset tests
  std::string full;                      // head | body in written order
};

CanonicalRule Canonicalize(const Rule& rule) {
  CanonicalRule out;
  std::unordered_map<VarId, int> renumber;
  out.head = CanonicalAtomKey(rule.head, &renumber);
  for (const Atom& atom : rule.body) {
    out.body.push_back(CanonicalAtomKey(atom, &renumber));
  }
  out.body_sorted = out.body;
  std::sort(out.body_sorted.begin(), out.body_sorted.end());
  out.full = out.head + " | " + Join(out.body, ", ");
  return out;
}

void DuplicatePass(const LintContext& ctx, std::vector<Diagnostic>* out) {
  const std::vector<Rule>& rules = ctx.program.rules();
  std::unordered_map<std::string, std::size_t> first_seen;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    CanonicalRule canon = Canonicalize(rules[i]);
    auto [it, inserted] = first_seen.try_emplace(canon.full, i);
    if (inserted) continue;
    Diagnostic diag = MakeRuleDiagnostic(
        ctx.program, static_cast<int>(i), Severity::kWarning,
        lint_code::kDuplicateRule,
        RuleLabel(i) + " '" + RuleToString(rules[i], ctx.program.vocab()) +
            "' duplicates " + RuleLabel(it->second) + " (at " +
            ResolveSpan(ctx.program, rules[it->second].loc).ToString() +
            ") up to variable renaming");
    out->push_back(std::move(diag));
  }
}

void SubsumedPass(const LintContext& ctx, std::vector<Diagnostic>* out) {
  const std::vector<Rule>& rules = ctx.program.rules();
  std::vector<CanonicalRule> canon;
  canon.reserve(rules.size());
  for (const Rule& rule : rules) canon.push_back(Canonicalize(rule));
  for (std::size_t i = 0; i < rules.size(); ++i) {
    for (std::size_t j = 0; j < rules.size(); ++j) {
      if (i == j || canon[i].head != canon[j].head) continue;
      // Rule j's body is a proper subset of rule i's: everything rule i
      // derives, rule j derives with fewer constraints — rule i is
      // redundant. Exact duplicates are L004's business.
      if (canon[i].body_sorted.size() <= canon[j].body_sorted.size()) continue;
      if (!std::includes(canon[i].body_sorted.begin(),
                         canon[i].body_sorted.end(),
                         canon[j].body_sorted.begin(),
                         canon[j].body_sorted.end())) {
        continue;
      }
      out->push_back(MakeRuleDiagnostic(
          ctx.program, static_cast<int>(i), Severity::kWarning,
          lint_code::kSubsumedRule,
          RuleLabel(i) + " '" + RuleToString(rules[i], ctx.program.vocab()) +
              "' is subsumed by the less constrained " + RuleLabel(j) +
              " (at " + ResolveSpan(ctx.program, rules[j].loc).ToString() +
              "): same head, and every body literal of " + RuleLabel(j) +
              " also occurs here"));
      break;  // one witness per rule is enough
    }
  }
}

// --------------------------------------------------------------------------
// reachability (L006, L007, L008): dead rules and underivable predicates
// from EDB roots (facts) bottom-up; optional top-down relevance from query
// roots over the dependency graph.
// --------------------------------------------------------------------------

void ReachabilityPass(const LintContext& ctx, std::vector<Diagnostic>* out) {
  const Vocabulary& vocab = ctx.program.vocab();
  const std::vector<Rule>& rules = ctx.program.rules();
  const std::size_t num_preds = vocab.num_predicates();

  // Bottom-up: a predicate is *supported* when it has a database fact or
  // some rule for it whose body predicates are all supported.
  std::vector<bool> supported(num_preds, false);
  for (const GroundAtom& fact : ctx.database.facts()) {
    if (fact.pred < num_preds) supported[fact.pred] = true;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Rule& rule : rules) {
      if (rule.head.pred >= num_preds || supported[rule.head.pred]) continue;
      bool fires = true;
      for (const Atom& atom : rule.body) {
        if (atom.pred >= num_preds || !supported[atom.pred]) {
          fires = false;
          break;
        }
      }
      if (fires) {
        supported[rule.head.pred] = true;
        changed = true;
      }
    }
  }

  std::vector<bool> in_head(num_preds, false);
  for (const Rule& rule : rules) {
    if (rule.head.pred < num_preds) in_head[rule.head.pred] = true;
  }

  // L006: rules that can never fire, naming the first empty body predicate.
  for (std::size_t i = 0; i < rules.size(); ++i) {
    for (const Atom& atom : rules[i].body) {
      if (atom.pred >= num_preds || supported[atom.pred]) continue;
      const std::string& name = vocab.predicate(atom.pred).name;
      out->push_back(AtomDiagnostic(
          ctx, static_cast<int>(i), atom, Severity::kWarning,
          lint_code::kDeadRule,
          RuleLabel(i) + " can never fire: predicate '" + name + "' has " +
              (in_head[atom.pred]
                   ? "rules but no derivable tuples"
                   : "no facts and no rules") +
              ", so the body is unsatisfiable in every least model"));
      break;  // one witness per rule
    }
  }

  // L007: underivable predicates — empty, yet used or defined.
  std::vector<bool> reported(num_preds, false);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const Rule& rule = rules[i];
    PredicateId head = rule.head.pred;
    if (head < num_preds && !supported[head] && !reported[head]) {
      reported[head] = true;
      out->push_back(MakeRuleDiagnostic(
          ctx.program, static_cast<int>(i), Severity::kWarning,
          lint_code::kUnderivablePredicate,
          "predicate '" + vocab.predicate(head).name +
              "' is underivable: it has no facts and every rule deriving "
              "it is dead"));
    }
    for (const Atom& atom : rule.body) {
      PredicateId p = atom.pred;
      if (p >= num_preds || supported[p] || in_head[p] || reported[p]) {
        continue;
      }
      reported[p] = true;
      out->push_back(AtomDiagnostic(
          ctx, static_cast<int>(i), atom, Severity::kWarning,
          lint_code::kUnderivablePredicate,
          "predicate '" + vocab.predicate(p).name +
              "' has no facts and no rules (possible typo in the "
              "predicate name)"));
    }
  }

  // L008: top-down relevance from explicit query roots.
  if (ctx.options.roots.empty()) return;
  std::vector<bool> relevant(num_preds, false);
  std::vector<PredicateId> stack;
  std::string root_list;
  for (const std::string& name : ctx.options.roots) {
    PredicateId p = vocab.FindPredicate(name);
    if (p == kInvalidPredicate || p >= num_preds) {
      // L013: a root that names no predicate is almost always a typo, and
      // silently dropping it would hide rules from the L008 relevance set.
      out->push_back(MakeProgramDiagnostic(
          Severity::kNote, lint_code::kUnknownRoot,
          "query root '" + name +
              "' does not name a predicate of the program and is ignored"));
      continue;
    }
    if (!root_list.empty()) root_list += ", ";
    root_list += "'" + name + "'";
    if (!relevant[p]) {
      relevant[p] = true;
      stack.push_back(p);
    }
  }
  while (!stack.empty()) {
    PredicateId p = stack.back();
    stack.pop_back();
    for (PredicateId q : ctx.graph.DependsOn(p)) {
      if (q < num_preds && !relevant[q]) {
        relevant[q] = true;
        stack.push_back(q);
      }
    }
  }
  for (std::size_t i = 0; i < rules.size(); ++i) {
    PredicateId head = rules[i].head.pred;
    if (head >= num_preds || relevant[head]) continue;
    out->push_back(MakeRuleDiagnostic(
        ctx.program, static_cast<int>(i), Severity::kNote,
        lint_code::kUnreachableFromRoots,
        RuleLabel(i) + " for '" + vocab.predicate(head).name +
            "' is unreachable from the query roots " + root_list +
            " and cannot contribute to an answer"));
  }
}

// --------------------------------------------------------------------------
// classification (L009, L010, L011): explained tractability verdicts.
// --------------------------------------------------------------------------

void ClassificationPass(const LintContext& ctx, std::vector<Diagnostic>* out) {
  SeparabilityReport separability =
      CheckSeparability(ctx.program, ctx.graph);
  for (Diagnostic& diag : separability.diagnostics) {
    out->push_back(std::move(diag));
  }
  ProgressivityReport progressive = CheckProgressive(ctx.program);
  if (!progressive.progressive) {
    out->push_back(MakeProgramDiagnostic(
        Severity::kNote, lint_code::kNotProgressive,
        "program is not progressive: " + progressive.reason +
            "; period detection falls back to verified doubling"));
  }
}

// --------------------------------------------------------------------------
// inflationary (L012): the Theorem 5.2 decision procedure (opt-in).
// --------------------------------------------------------------------------

void InflationaryPass(const LintContext& ctx, std::vector<Diagnostic>* out) {
  Result<InflationaryReport> report = CheckInflationary(ctx.program);
  if (!report.ok()) {
    out->push_back(MakeProgramDiagnostic(
        Severity::kNote, lint_code::kNotInflationary,
        "inflationary check (Theorem 5.2) is inconclusive: " +
            report.status().ToString()));
    return;
  }
  for (Diagnostic& diag : report->diagnostics) {
    out->push_back(std::move(diag));
  }
}

using PassFn = void (*)(const LintContext&, std::vector<Diagnostic>*);

struct RegisteredPass {
  LintPassInfo info;
  PassFn fn;
};

const std::vector<RegisteredPass>& Registry() {
  static const std::vector<RegisteredPass> kPasses = {
      {{"safety", "L001",
        "range-restriction violations (unbound head variables)"},
       SafetyPass},
      {{"sorts", "L002",
        "temporal-argument misuse and signature mismatches on the typed AST"},
       SortsPass},
      {{"singleton", "L003", "variables occurring exactly once in a rule"},
       SingletonPass},
      {{"duplicate", "L004", "rules identical up to variable renaming"},
       DuplicatePass},
      {{"subsumed", "L005",
        "rules whose body strictly contains another rule's body (same head)"},
       SubsumedPass},
      {{"reachability", "L006,L007,L008,L013",
        "dead rules and underivable predicates from EDB/query roots"},
       ReachabilityPass},
      {{"classification", "L009,L010,L011",
        "explained multi-separability / progressivity failures"},
       ClassificationPass},
      {{"inflationary", "L012",
        "Theorem 5.2 inflationary decision procedure (opt-in, builds models)"},
       InflationaryPass},
  };
  return kPasses;
}

}  // namespace

const std::vector<LintPassInfo>& LintPassRegistry() {
  static const std::vector<LintPassInfo> kInfos = [] {
    std::vector<LintPassInfo> infos;
    for (const RegisteredPass& pass : Registry()) infos.push_back(pass.info);
    return infos;
  }();
  return kInfos;
}

std::size_t LintResult::CountSeverity(Severity severity) const {
  std::size_t n = 0;
  for (const Diagnostic& diag : diagnostics) {
    if (diag.severity == severity) ++n;
  }
  return n;
}

std::string LintResult::ToString() const {
  std::string out;
  for (const Diagnostic& diag : diagnostics) {
    out += diag.ToString() + "\n";
  }
  std::size_t errors = CountSeverity(Severity::kError);
  std::size_t warnings = CountSeverity(Severity::kWarning);
  if (errors + warnings > 0) {
    out += std::to_string(errors) + " error(s), " +
           std::to_string(warnings) + " warning(s)\n";
  }
  return out;
}

std::string LintResult::ToJson() const {
  std::string out = "{\"diagnostics\":" + DiagnosticsToJson(diagnostics);
  out += ",\"errors\":" + std::to_string(CountSeverity(Severity::kError));
  out += ",\"warnings\":" + std::to_string(CountSeverity(Severity::kWarning));
  out += ",\"notes\":" + std::to_string(CountSeverity(Severity::kNote));
  out += "}";
  return out;
}

LintResult LintProgram(const Program& program, const Database& database,
                       const LintOptions& options) {
  DependencyGraph graph(program);
  LintContext ctx{program, database, options, graph};
  LintResult result;
  auto disabled = [&options](std::string_view name) {
    for (const std::string& d : options.disabled_passes) {
      if (d == name) return true;
    }
    return false;
  };
  for (const RegisteredPass& pass : Registry()) {
    if (disabled(pass.info.name)) continue;
    if (pass.info.name == "classification" && !options.classify) continue;
    if (pass.info.name == "inflationary" && !options.check_inflationary) {
      continue;
    }
    pass.fn(ctx, &result.diagnostics);
  }
  SortDiagnostics(&result.diagnostics);
  return result;
}

}  // namespace chronolog
