#include "eval/fixpoint.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "common/logging.h"

namespace gdlog {

FixpointDriver::FixpointDriver(Catalog* catalog, ValueStore* store,
                               const StageAnalysis* analysis,
                               std::vector<CompiledRule> rules,
                               EvalOptions options, ObsContext obs,
                               RunGuard* guard)
    : catalog_(catalog),
      store_(store),
      analysis_(analysis),
      rules_(std::move(rules)),
      options_(options),
      exec_(catalog, store),
      choice_(store),
      obs_(obs),
      obs_enabled_(obs.enabled()),
      guard_(guard) {
  uint32_t max_rule = 0;
  for (const CompiledRule& r : rules_) {
    max_rule = std::max(max_rule, r.rule_index);
  }
  profiles_.resize(rules_.empty() ? 0 : max_rule + 1);
  for (const CompiledRule& r : rules_) {
    RuleProfile& p = profiles_[r.rule_index];
    const Relation& head = catalog_->relation(r.head_pred);
    p.head = head.name() + "/" + std::to_string(head.arity());
    p.kind = r.is_next ? "next"
             : r.is_gamma ? "gamma"
             : r.has_extremum ? "aggregate"
                              : "plain";
    p.recursive = r.recursive;
    if (obs_.metrics != nullptr) {
      p.latency = obs_.metrics->GetHistogram(
          "rule.apply_ns", {{"rule", p.head + "#" +
                                         std::to_string(r.rule_index)}});
    }
  }
  // The queues and the FD memo charge their growth to the run's budget.
  MemoryBudget* const budget = guard_ != nullptr ? guard_->budget() : nullptr;
  for (const CompiledRule& r : rules_) {
    if (!r.is_gamma) continue;
    choice_.Register(r);
    auto order = CandidateQueue::Order::kFifo;
    if (r.has_extremum) {
      order = r.is_least ? CandidateQueue::Order::kMin
                         : CandidateQueue::Order::kMax;
    }
    // Congruence merging only makes sense under a cost order (keep the
    // cheaper congruent candidate). Rules without an extremum use the
    // paper's "simple set" queue — plain duplicate elimination — so that
    // which instance of a class fires stays a free (seedable) choice.
    const bool merge = r.merge_by_choice_keys &&
                       options_.use_merge_congruence && r.has_extremum;
    auto g = std::make_unique<GammaState>();
    g->rule = &r;
    g->merge = merge;
    g->queue = std::make_unique<CandidateQueue>(
        store_, order, merge, options_.choice_seed,
        /*linear_scan=*/!options_.use_priority_queue);
    if (r.has_extremum) {
      g->group_best =
          FlatTable(TermComponentCount(r.pool, r.group_term),
                    /*value_width=*/1);  // the group's extremum cost
    }
    g->queue->set_memory_budget(budget);
    if (obs_.tracer != nullptr) {
      g->queue->set_tracer(obs_.tracer,
                           "q" + std::to_string(r.gamma_index));
    }
    if (gamma_states_.size() <= static_cast<size_t>(r.gamma_index)) {
      gamma_states_.resize(r.gamma_index + 1);
    }
    gamma_states_[r.gamma_index] = std::move(g);
  }
  choice_.set_memory_budget(budget);
  // EXPLAIN ANALYZE: per-goal cardinality counters, one row per rule,
  // with a shared lock-free fan-out histogram per goal. Sized (and thus
  // enabled in the executor) only when metrics are on.
  goal_stats_.resize(profiles_.size());
  if (obs_.metrics != nullptr) {
    for (const CompiledRule& r : rules_) {
      auto& row = goal_stats_[r.rule_index];
      row.resize(r.num_goals);
      for (uint32_t g = 0; g < r.num_goals; ++g) {
        row[g].fanout = obs_.metrics->GetHistogram(
            "goal.fanout",
            {{"rule", profiles_[r.rule_index].head + "#" +
                          std::to_string(r.rule_index)},
             {"goal", std::to_string(g)}});
      }
    }
    exec_.set_goal_stats(&goal_stats_);
    delta_rows_hist_ = obs_.metrics->GetHistogram("seminaive.delta_rows");
    pops_per_fire_hist_ =
        obs_.metrics->GetHistogram("choice.pops_per_fire");
    admissible_ = obs_.metrics->GetCounter("choice.admissible");
    inadmissible_ = obs_.metrics->GetCounter("choice.inadmissible");
  }
  if (catalog_->provenance_enabled()) {
    prov_ = true;
    exec_.set_provenance_trail(&prov_trail_);
    audit_ = std::make_unique<ChoiceAuditTrail>();
  }
}

Status FixpointDriver::Run() {
  Status st = Status::OK();
  for (uint32_t scc : analysis_->clique_order) {
    const CliqueStageInfo& cl = analysis_->cliques[scc];
    if (cl.cls == CliqueClass::kRejected) {
      st = Status::AnalysisError("clique rejected: " + cl.diagnostic);
      break;
    }
    st = EvalClique(scc);
    if (!st.ok()) break;
  }
  // Fill statistics even on a bounded stop, so the partial evaluation is
  // fully reportable (RunReport, metrics, shell .stats).
  exec_stats_view_ = exec_.stats();
  stats_.exec = exec_.stats();
  stats_.queues = AggregateQueueStats();
  if (guard_ != nullptr) {
    stats_.termination = guard_->reason();
    stats_.guard_checks = guard_->checks();
    if (guard_->budget() != nullptr) {
      stats_.peak_memory_bytes = guard_->budget()->peak();
    }
  }
  if (obs_.metrics != nullptr) PublishMetrics();
  return st;
}

Status FixpointDriver::GuardCheck(std::string_view probe) {
  if (guard_ == nullptr) return Status::OK();
  GuardCounters c;
  c.tuples = exec_.stats().inserts;
  c.stages = stats_.stages_assigned;
  c.iterations = stats_.saturation_rounds;
  const Status st = guard_->Check(c, probe);
  // Trips are recorded once, with the latched reason.
  if (!st.ok() && !trip_recorded_) {
    trip_recorded_ = true;
    if (guard_->reason() == TerminationReason::kFault) {
      Record(FlightEventKind::kFaultInjected, 0, 0);
    }
    Record(FlightEventKind::kGuardTrip, static_cast<int64_t>(guard_->reason()),
           static_cast<int64_t>(guard_->checks()));
  }
  return st;
}

uint64_t FixpointDriver::ObsNowNs() const {
  if (obs_.tracer != nullptr) return obs_.tracer->NowNs();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void FixpointDriver::RecordApply(RuleProfile* prof, uint64_t start_ns,
                                 const char* cat) {
  const uint64_t end_ns = ObsNowNs();
  const uint64_t dur = end_ns - start_ns;
  prof->wall_ns += dur;
  if (prof->latency != nullptr) {
    prof->latency->Observe(static_cast<double>(dur));
  }
  if (obs_.tracer != nullptr && obs_.tracer->Sample()) {
    obs_.tracer->Complete(prof->head, cat, start_ns, end_ns);
  }
}

void FixpointDriver::AddAuditEntry(ChoiceAuditEntry entry) {
  audit_->Add(std::move(entry));
  Charge(&audit_charged_, audit_->ApproxBytes());
}

void FixpointDriver::Charge(size_t* charged, size_t bytes) {
  if (guard_ != nullptr && guard_->budget() != nullptr) {
    guard_->budget()->Update(charged, bytes);
  }
}

RunCounters FixpointDriver::run_counters() const {
  RunCounters run;
  run.round = stats_.saturation_rounds;
  run.tuples = exec_.stats().inserts;
  run.gamma_firings = stats_.gamma_firings;
  run.stages = stats_.stages_assigned;
  if (guard_ != nullptr && guard_->budget() != nullptr) {
    run.memory_bytes = guard_->budget()->used();
  }
  return run;
}

void FixpointDriver::Record(FlightEventKind kind, int64_t a0, int64_t a1) {
  if (obs_.recorder != nullptr) {
    obs_.recorder->Record(kind, a0, a1, run_counters());
  }
}

void FixpointDriver::PublishMetrics() {
  MetricsRegistry& m = *obs_.metrics;
  m.GetCounter("fixpoint.saturation_rounds")->Add(stats_.saturation_rounds);
  m.GetCounter("fixpoint.gamma_firings")->Add(stats_.gamma_firings);
  m.GetCounter("fixpoint.stages_assigned")->Add(stats_.stages_assigned);
  m.GetCounter("exec.solutions")->Add(exec_.stats().solutions);
  m.GetCounter("exec.inserts")->Add(exec_.stats().inserts);
  m.GetCounter("exec.scan_rows")->Add(exec_.stats().scan_rows);
  m.GetCounter("guard.checks")->Add(stats_.guard_checks);
  // memory.tracked_peak_bytes is published by Engine::Run from
  // MemoryBudget::peak() — the single source of truth — so it is set
  // even when a bad_alloc bypasses this function.
  for (const RuleProfile& p : profiles_) {
    if (p.head.empty()) continue;
    // Label by head + index so two rules with the same head stay apart.
    const size_t idx = static_cast<size_t>(&p - profiles_.data());
    const MetricLabels labels{{"rule", p.head + "#" + std::to_string(idx)}};
    m.GetCounter("rule.invocations", labels)->Add(p.invocations);
    m.GetCounter("rule.tuples", labels)->Add(p.tuples);
    m.GetCounter("rule.dedup_hits", labels)->Add(p.dedup_hits);
    if (p.firings > 0) m.GetCounter("rule.firings", labels)->Add(p.firings);
    m.GetCounter("rule.wall_ns", labels)->Add(p.wall_ns);
  }
  for (size_t i = 0; i < gamma_states_.size(); ++i) {
    if (!gamma_states_[i]) continue;
    const CandidateQueueStats& s = gamma_states_[i]->queue->stats();
    const MetricLabels labels{{"gamma", std::to_string(i)}};
    m.GetCounter("queue.inserted", labels)->Add(s.inserted);
    m.GetCounter("queue.merged", labels)->Add(s.merged);
    m.GetCounter("queue.redundant", labels)->Add(s.redundant);
    m.GetCounter("queue.fired", labels)->Add(s.fired);
    m.GetGauge("queue.max_queue", labels)
        ->SetMax(static_cast<int64_t>(s.max_queue));
  }
  if (audit_ != nullptr) {
    // Choice-audit series (gdlog_choice_* in the Prometheus export).
    Histogram* cand_hist = m.GetHistogram("choice.candidate_set");
    Histogram* tie_hist = m.GetHistogram("choice.tie_count");
    uint64_t rej_ext = 0, rej_fd = 0, rej_post = 0;
    for (const ChoiceAuditEntry& e : audit_->entries()) {
      cand_hist->Record(e.candidate_set);
      tie_hist->Record(e.ties);
      rej_ext += e.rejected_extremum;
      rej_fd += e.rejected_fd;
      rej_post += e.rejected_post;
    }
    m.GetCounter("choice.audit_firings")->Add(audit_->entries().size());
    m.GetCounter("choice.audit_rejections", {{"reason", "extremum"}})
        ->Add(rej_ext);
    m.GetCounter("choice.audit_rejections", {{"reason", "fd"}})->Add(rej_fd);
    m.GetCounter("choice.audit_rejections", {{"reason", "post"}})
        ->Add(rej_post);
  }
}

CandidateQueueStats FixpointDriver::AggregateQueueStats() const {
  CandidateQueueStats total;
  for (const auto& g : gamma_states_) {
    if (!g) continue;
    const CandidateQueueStats& s = g->queue->stats();
    total.inserted += s.inserted;
    total.merged += s.merged;
    total.redundant += s.redundant;
    total.fired += s.fired;
    total.max_queue = std::max(total.max_queue, s.max_queue);
  }
  return total;
}

const CandidateQueueStats* FixpointDriver::QueueStats(int gamma_index) const {
  if (gamma_index < 0 ||
      static_cast<size_t>(gamma_index) >= gamma_states_.size() ||
      !gamma_states_[gamma_index]) {
    return nullptr;
  }
  return &gamma_states_[gamma_index]->queue->stats();
}

void FixpointDriver::RestoreSnapshot(const CompiledRule& rule,
                                     std::span<const Value> snapshot,
                                     BindingFrame* frame) {
  frame->Reset(rule.num_slots);
  GDLOG_CHECK_EQ(snapshot.size(), rule.snapshot_slots.size());
  for (size_t i = 0; i < snapshot.size(); ++i) {
    frame->Bind(rule.snapshot_slots[i], snapshot[i]);
  }
}

void FixpointDriver::EvalPlain(const CompiledRule& rule,
                               uint32_t delta_occurrence) {
  RuleProfile& prof = profiles_[rule.rule_index];
  ++prof.invocations;
  const uint64_t t0 = obs_enabled_ ? ObsNowNs() : 0;
  size_t attempted = 0;
  const size_t n = exec_.ApplyRule(rule, delta_occurrence, &attempted);
  prof.tuples += n;
  prof.dedup_hits += attempted - n;
  if (obs_enabled_) RecordApply(&prof, t0, "rule");
}

void FixpointDriver::EvalAggregate(const CompiledRule& rule) {
  RuleProfile& prof = profiles_[rule.rule_index];
  ++prof.invocations;
  const uint64_t t0 = obs_enabled_ ? ObsNowNs() : 0;
  // Enumerate the full body; keep, per group value, the extremum cost and
  // every head tuple achieving it (ties all survive, as least/most keep
  // every binding with no strictly better one).
  struct Group {
    Value best;
    std::vector<std::vector<Value>> heads;
    // Premises per head, kept parallel to `heads` (provenance only).
    std::vector<std::vector<ProvPremise>> provs;
  };
  std::unordered_map<Value, Group, ValueHash> groups;
  BindingFrame frame(rule.num_slots);
  exec_.Enumerate(rule, rule.generator, CompiledScan::kNoOccurrence, &frame,
                  [&](BindingFrame& f) {
                    Value cost, group;
                    if (!EvalTerm(rule.pool, rule.cost_term, f, store_,
                                  &cost) ||
                        !EvalTerm(rule.pool, rule.group_term, f, store_,
                                  &group)) {
                      return true;  // untyped binding: contributes nothing
                    }
                    std::vector<Value> head;
                    if (!exec_.BuildHead(rule, f, &head)) return true;
                    auto [it, fresh] = groups.try_emplace(group);
                    Group& g = it->second;
                    const int c =
                        fresh ? -1 : store_->Compare(cost, g.best);
                    const bool better =
                        fresh || (rule.is_least ? c < 0 : c > 0);
                    if (better) {
                      g.best = cost;
                      g.heads.clear();
                      g.provs.clear();
                      g.heads.push_back(std::move(head));
                      if (prov_) g.provs.push_back(prov_trail_);
                    } else if (c == 0) {
                      g.heads.push_back(std::move(head));
                      if (prov_) g.provs.push_back(prov_trail_);
                    }
                    return true;
                  });
  Relation& head_rel = catalog_->relation(rule.head_pred);
  for (auto& [group, g] : groups) {
    for (size_t i = 0; i < g.heads.size(); ++i) {
      const auto res = head_rel.Insert(TupleView(g.heads[i]));
      if (res.inserted) {
        ++exec_.stats().inserts;
        ++prof.tuples;
        if (prov_) {
          head_rel.Annotate(res.row, rule.rule_index, g.provs[i].data(),
                            g.provs[i].size());
        }
      } else {
        ++prof.dedup_hits;
      }
    }
  }
  if (obs_enabled_) RecordApply(&prof, t0, "rule");
}

void FixpointDriver::InsertCandidates(GammaState* g,
                                      uint32_t delta_occurrence) {
  const CompiledRule& rule = *g->rule;
  RuleProfile& prof = profiles_[rule.rule_index];
  ++prof.invocations;
  const uint64_t t0 = obs_enabled_ ? ObsNowNs() : 0;
  const uint64_t pushed_before = g->queue->stats().inserted;
  gen_frame_.Reset(rule.num_slots);
  const std::vector<CompiledLiteral>& plan =
      (delta_occurrence == CompiledScan::kNoOccurrence ||
       delta_occurrence >= rule.delta_plans.size())
          ? rule.generator
          : rule.delta_plans[delta_occurrence];
  exec_.Enumerate(rule, plan, delta_occurrence, &gen_frame_,
                  [this, g](BindingFrame& f) {
                    PushCandidate(g, f);
                    return true;
                  });
  prof.candidates += g->queue->stats().inserted - pushed_before;
  if (obs_enabled_) RecordApply(&prof, t0, "rule");
}

void FixpointDriver::PushCandidate(GammaState* g, const BindingFrame& f) {
  const CompiledRule& rule = *g->rule;
  Value cost = Value::Int(0);
  if (rule.has_extremum &&
      !EvalTerm(rule.pool, rule.cost_term, f, store_, &cost)) {
    return;
  }
  snapshot_buf_.clear();
  for (uint32_t s : rule.snapshot_slots) snapshot_buf_.push_back(f.Get(s));
  // Merge mode keys the class by the choice keys, full mode by the
  // whole candidate.
  std::span<const Value> key = snapshot_buf_;
  if (g->merge) {
    key_buf_.clear();
    for (uint32_t s : rule.congruence_slots) key_buf_.push_back(f.Get(s));
    key = key_buf_;
  }
  g->queue->Push(cost, key, snapshot_buf_,
                 prov_ ? std::span<const ProvPremise>(prov_trail_)
                       : std::span<const ProvPremise>());
}

Status FixpointDriver::EvalClique(uint32_t scc) {
  const CliqueStageInfo& cl = analysis_->cliques[scc];
  const DependencyGraph& graph = *analysis_->graph;

  TraceSpan clique_span(obs_.tracer, "clique#" + std::to_string(scc),
                        "fixpoint");
  CliqueCtx ctx;
  for (PredIndex p : cl.members) {
    const PredicateId id = catalog_->Lookup(graph.name(p), graph.arity(p));
    if (id != kNoPredicate) ctx.relations.push_back(id);
  }
  for (const CompiledRule& r : rules_) {
    if (graph.scc_of(graph.Lookup(
            catalog_->relation(r.head_pred).name(),
            r.head_arity)) != scc) {
      continue;
    }
    if (r.is_gamma) {
      GammaState* g = gamma_states_[r.gamma_index].get();
      ctx.gammas.push_back(g);
      if (r.is_next) ctx.has_next = true;
    } else if (r.has_extremum) {
      ctx.aggregate.push_back(&r);
    } else {
      ctx.plain.push_back(&r);
    }
  }
  if (ctx.plain.empty() && ctx.aggregate.empty() && ctx.gammas.empty()) {
    // Pure EDB clique; seal so later cliques never see phantom deltas.
    for (PredicateId id : ctx.relations) catalog_->relation(id).SealEpoch();
    return Status::OK();
  }

  // Round 0: full evaluation of every rule.
  GDLOG_RETURN_IF_ERROR(GuardCheck(FaultInjector::kEvalSaturate));
  for (const CompiledRule* r : ctx.plain) {
    EvalPlain(*r, CompiledScan::kNoOccurrence);
  }
  for (const CompiledRule* r : ctx.aggregate) EvalAggregate(*r);
  for (GammaState* g : ctx.gammas) {
    InsertCandidates(g, CompiledScan::kNoOccurrence);
  }

  // Alternate Q∞ and γ until neither makes progress.
  for (;;) {
    GDLOG_RETURN_IF_ERROR(Saturate(&ctx));
    if (ctx.has_next && ctx.stage_counter == 0) {
      // Initialize the stage counter past every stage value the exit
      // rules produced (e.g. prm(nil, a, 0, 0) puts 0 in play).
      int64_t max_stage = -1;
      for (PredicateId id : ctx.relations) {
        const Relation& rel = catalog_->relation(id);
        const PredIndex p = graph.Lookup(rel.name(), rel.arity());
        const int pos = analysis_->stage_arg[p];
        if (pos < 0) continue;
        for (RowId row = 0; row < rel.size(); ++row) {
          const Value v = rel.Row(row)[pos];
          if (v.is_int()) max_stage = std::max(max_stage, v.AsInt());
        }
      }
      ctx.stage_counter = max_stage + 1;
    }
    GDLOG_RETURN_IF_ERROR(GuardCheck(FaultInjector::kEvalGamma));
    if (!GammaPhase(&ctx)) break;
  }

  clique_span.AddArg("relations", static_cast<int64_t>(ctx.relations.size()));
  clique_span.AddArg("stages", ctx.stage_counter);
  for (PredicateId id : ctx.relations) catalog_->relation(id).SealEpoch();
  return Status::OK();
}

Status FixpointDriver::Saturate(CliqueCtx* ctx) {
  TraceSpan span(obs_.tracer, "Saturate", "fixpoint");
  const uint64_t t0 = obs_enabled_ ? ObsNowNs() : 0;
  const uint64_t rounds_before = stats_.saturation_rounds;
  Status guard_status = Status::OK();
  for (;;) {
    bool any_delta = false;
    uint64_t delta_total = 0;
    for (PredicateId id : ctx->relations) {
      const size_t d = catalog_->relation(id).AdvanceEpoch();
      if (d > 0) {
        any_delta = true;
        delta_total += d;
        if (delta_rows_hist_ != nullptr) {
          delta_rows_hist_->Record(static_cast<uint64_t>(d));
        }
      }
    }
    if (!any_delta) break;
    ++stats_.saturation_rounds;
    guard_status = GuardCheck(FaultInjector::kEvalSaturate);
    if (!guard_status.ok()) break;
    const bool seminaive = options_.use_seminaive;
    const uint64_t inserts_before = exec_.stats().inserts;
    for (const CompiledRule* r : ctx->plain) {
      if (!r->recursive) continue;
      if (seminaive) {
        for (uint32_t d = 0; d < r->num_clique_occurrences; ++d) {
          EvalPlain(*r, d);
        }
      } else {
        // Naive ablation: full windows every round.
        EvalPlain(*r, CompiledScan::kNoOccurrence);
      }
    }
    for (const CompiledRule* r : ctx->aggregate) {
      if (r->recompute_full) EvalAggregate(*r);
    }
    for (GammaState* g : ctx->gammas) {
      if (!g->rule->recursive) continue;
      if (seminaive) {
        for (uint32_t d = 0; d < g->rule->num_clique_occurrences; ++d) {
          InsertCandidates(g, d);
        }
      } else {
        InsertCandidates(g, CompiledScan::kNoOccurrence);
      }
    }
    Record(FlightEventKind::kRound, static_cast<int64_t>(delta_total),
           static_cast<int64_t>(exec_.stats().inserts - inserts_before));
  }
  span.AddArg("rounds",
              static_cast<int64_t>(stats_.saturation_rounds - rounds_before));
  if (obs_enabled_) stats_.saturate_ns += ObsNowNs() - t0;
  return guard_status;
}

size_t FixpointDriver::DrainChoiceRule(GammaState* g) {
  // One firing per call — the paper's γ fires a single chosen instance
  // per iteration, alternating with saturation; interleaving lets
  // different tie-break seeds explore different stable models.
  const CompiledRule& rule = *g->rule;
  BindingFrame& frame = fire_frame_;
  uint64_t pops = 0;
  uint64_t rej_ext = 0, rej_fd = 0, rej_post = 0;
  const uint64_t live_before =
      audit_ != nullptr ? g->queue->LiveSize() : 0;
  while (auto cand = g->queue->Pop()) {
    ++pops;
    RestoreSnapshot(rule, cand->snapshot, &frame);
    if (rule.has_extremum) {
      // Extrema filtering: pops arrive in cost order, so the first
      // candidate ever seen in a group carries the group's true
      // extremum; any later candidate with a different cost was never a
      // valid instance of the rule. The per-group record persists across
      // calls in the GammaState.
      Value cost;
      // Cost evaluated at enqueue, so it evaluates again here; the
      // group term is first evaluated on this path and can fail on an
      // untyped binding — such a candidate was never a valid instance.
      group_buf_.clear();
      const bool ok =
          EvalTerm(rule.pool, rule.cost_term, frame, store_, &cost) &&
          EvalTermComponents(rule.pool, rule.group_term, frame, store_,
                             &group_buf_);
      if (!ok) {
        ++rej_post;
        g->queue->MarkRedundant(*cand);
        continue;
      }
      bool fresh = false;
      const uint32_t id = g->group_best.Insert(group_buf_, &fresh);
      Value& best = g->group_best.Values(id)[0];
      if (fresh) {
        best = cost;
        Charge(&g->group_charged, g->group_best.ApproxBytes());
      } else if (best != cost) {
        ++rej_ext;
        Record(FlightEventKind::kChoiceReject,
               static_cast<int64_t>(rule.rule_index),
               static_cast<int64_t>(g->queue->LiveSize()));
        g->queue->MarkRedundant(*cand);
        continue;
      }
    }
    if (!choice_.Admissible(rule, frame)) {
      if (inadmissible_ != nullptr) inadmissible_->Add(1);
      ++rej_fd;
      Record(FlightEventKind::kChoiceReject,
             static_cast<int64_t>(rule.rule_index),
             static_cast<int64_t>(g->queue->LiveSize()));
      g->queue->MarkRedundant(*cand);
      continue;
    }
    if (admissible_ != nullptr) admissible_->Add(1);
    // Build the head before committing the FD: a candidate whose head
    // term fails to evaluate (untyped binding, e.g. arithmetic over a
    // symbol) derives nothing and must not burn the choice.
    std::vector<Value>& head = head_buf_;
    if (!exec_.BuildHead(rule, frame, &head)) {
      ++rej_post;
      g->queue->MarkRedundant(*cand);
      continue;
    }
    choice_.Commit(rule, frame);
    RuleProfile& prof = profiles_[rule.rule_index];
    Relation& head_rel = catalog_->relation(rule.head_pred);
    const auto res = head_rel.Insert(TupleView(head));
    if (res.inserted) {
      ++exec_.stats().inserts;
      ++prof.tuples;
      if (prov_) {
        head_rel.Annotate(res.row, rule.rule_index, cand->premises.data(),
                          cand->premises.size());
      }
    } else {
      ++prof.dedup_hits;
    }
    g->queue->MarkFired(*cand);
    ++stats_.gamma_firings;
    ++prof.firings;
    if (pops_per_fire_hist_ != nullptr) pops_per_fire_hist_->Record(pops);
    Record(FlightEventKind::kGammaFire, static_cast<int64_t>(rule.rule_index),
           static_cast<int64_t>(stats_.gamma_firings));
    if (obs_.tracer != nullptr && obs_.tracer->Sample()) {
      obs_.tracer->Instant("gamma.fire", "gamma",
                           {{"rule", rule.rule_index}});
    }
    if (audit_ != nullptr) {
      ChoiceAuditEntry e;
      e.rule_index = rule.rule_index;
      e.gamma_index = rule.gamma_index;
      e.firing = stats_.gamma_firings;
      e.candidate_set = live_before;
      e.pops = pops;
      e.ties = rule.has_extremum ? g->queue->CountLiveEqualCost(cand->cost)
                                 : 0;
      e.rejected_extremum = rej_ext;
      e.rejected_fd = rej_fd;
      e.rejected_post = rej_post;
      e.cost = rule.has_extremum ? cand->cost : Value::Int(0);
      e.witness = head_rel.name() + TupleToString(*store_, TupleView(head));
      e.head_pred = rule.head_pred;
      e.head_row = res.row;
      AddAuditEntry(std::move(e));
    }
    return 1;
  }
  return 0;
}

bool FixpointDriver::TryFireNext(CliqueCtx* ctx, GammaState* g,
                                 const Candidate& cand,
                                 ChoiceAuditEntry* audit) {
  const CompiledRule& rule = *g->rule;
  RestoreSnapshot(rule, cand.snapshot, &fire_frame_);
  fire_frame_.Bind(rule.stage_slot, Value::Int(ctx->stage_counter));

  // The callback captures two pointers, so std::function holds it
  // without allocating.
  struct Attempt {
    const CompiledRule* rule;
    ChoiceAuditEntry* audit;
    bool fired = false;
    bool saw_solution = false;
  } at{&rule, audit};
  std::vector<Value>& head = head_buf_;
  exec_.Enumerate(rule, rule.post, CompiledScan::kNoOccurrence, &fire_frame_,
                  [this, &at](BindingFrame& f) {
                    at.saw_solution = true;
                    if (!choice_.Admissible(*at.rule, f)) {
                      if (inadmissible_ != nullptr) inadmissible_->Add(1);
                      if (at.audit != nullptr) ++at.audit->rejected_fd;
                      return true;
                    }
                    if (admissible_ != nullptr) admissible_->Add(1);
                    // Build now, insert after: the post plan may hold
                    // index iterators on the head relation. Build before
                    // Commit — a solution whose head term fails to
                    // evaluate derives nothing and must not burn the
                    // choice.
                    if (!exec_.BuildHead(*at.rule, f, &head_buf_)) {
                      if (at.audit != nullptr) ++at.audit->rejected_post;
                      return true;
                    }
                    choice_.Commit(*at.rule, f);
                    // The firing's post premises; the trail pops back to
                    // empty as the enumeration unwinds, so copy here.
                    if (prov_) post_prov_ = prov_trail_;
                    at.fired = true;
                    return false;  // one firing per γ
                  });
  const bool fired = at.fired;
  if (fired) {
    RuleProfile& prof = profiles_[rule.rule_index];
    Relation& head_rel = catalog_->relation(rule.head_pred);
    const auto res = head_rel.Insert(TupleView(head));
    if (res.inserted) {
      ++prof.tuples;
      if (prov_) {
        // Full justification: the generator premises carried by the
        // candidate plus the post plan's premises at the firing.
        prems_buf_.assign(cand.premises.begin(), cand.premises.end());
        prems_buf_.insert(prems_buf_.end(), post_prov_.begin(),
                          post_prov_.end());
        head_rel.Annotate(res.row, rule.rule_index, prems_buf_.data(),
                          prems_buf_.size());
      }
    } else {
      ++prof.dedup_hits;
    }
    if (audit != nullptr) {
      audit->stage = ctx->stage_counter;
      audit->cost = rule.has_extremum ? cand.cost : Value::Int(0);
      audit->witness =
          head_rel.name() + TupleToString(*store_, TupleView(head));
      audit->head_pred = rule.head_pred;
      audit->head_row = res.row;
    }
    g->queue->MarkFired(cand);
    ++prof.firings;
    if (obs_.tracer != nullptr && obs_.tracer->Sample()) {
      obs_.tracer->Instant("stage.advance", "gamma",
                           {{"rule", rule.rule_index},
                            {"stage", ctx->stage_counter}});
    }
    const int64_t stage = ctx->stage_counter++;
    ++stats_.gamma_firings;
    ++stats_.stages_assigned;
    Record(FlightEventKind::kStage, static_cast<int64_t>(rule.rule_index),
           stage);
  } else {
    if (audit != nullptr && !at.saw_solution) ++audit->rejected_post;
    Record(FlightEventKind::kChoiceReject,
           static_cast<int64_t>(rule.rule_index),
           static_cast<int64_t>(g->queue->LiveSize()));
    g->queue->MarkRedundant(cand);
  }
  return fired;
}

bool FixpointDriver::GammaPhase(CliqueCtx* ctx) {
  TraceSpan span(obs_.tracer, "GammaPhase", "fixpoint");
  const uint64_t t0 = obs_enabled_ ? ObsNowNs() : 0;
  bool fired = false;
  // Non-next choice rules: one firing, then back to saturation.
  for (GammaState* g : ctx->gammas) {
    if (g->rule->is_next) continue;
    if (DrainChoiceRule(g) > 0) {
      fired = true;
      break;
    }
  }
  // Next rules: exactly one firing.
  if (!fired) {
    for (GammaState* g : ctx->gammas) {
      if (!g->rule->is_next) continue;
      uint64_t pops = 0;
      ChoiceAuditEntry entry;  // accumulates across rejected pops
      const uint64_t live_before =
          audit_ != nullptr ? g->queue->LiveSize() : 0;
      while (auto cand = g->queue->Pop()) {
        ++pops;
        const Value cand_cost = cand->cost;
        if (TryFireNext(ctx, g, *cand,
                        audit_ != nullptr ? &entry : nullptr)) {
          fired = true;
          if (pops_per_fire_hist_ != nullptr) {
            pops_per_fire_hist_->Record(pops);
          }
          if (audit_ != nullptr) {
            entry.rule_index = g->rule->rule_index;
            entry.gamma_index = g->rule->gamma_index;
            entry.firing = stats_.gamma_firings;
            entry.candidate_set = live_before;
            entry.pops = pops;
            entry.ties = g->rule->has_extremum
                             ? g->queue->CountLiveEqualCost(cand_cost)
                             : 0;
            AddAuditEntry(std::move(entry));
          }
          break;
        }
      }
      if (fired) break;
    }
  }
  if (obs_enabled_) stats_.gamma_ns += ObsNowNs() - t0;
  return fired;
}

}  // namespace gdlog
