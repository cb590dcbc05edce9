#include "eval/fixpoint.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <unordered_map>
#include <utility>

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
      sample_every_(std::max<uint32_t>(1, obs.sample_every)),
      guard_(guard) {
  uint32_t max_rule = 0;
  for (const CompiledRule& r : rules_) {
    max_rule = std::max(max_rule, r.rule_index);
  }
  profiles_.resize(rules_.empty() ? 0 : max_rule + 1);
  apply_timers_.resize(profiles_.size());
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
    if (r.has_extremum && !r.is_next) {
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
  // each goal staging the fan-out of its probes for the registry's
  // goal.fanout histogram. Sized (and thus enabled in the executor) only
  // when metrics are on.
  goal_stats_.resize(profiles_.size());
  if (obs_.metrics != nullptr) {
    for (const CompiledRule& r : rules_) {
      auto& row = goal_stats_[r.rule_index];
      row.resize(r.num_goals);
      for (uint32_t g = 0; g < r.num_goals; ++g) {
        row[g].fanout = HistogramStage(obs_.metrics->GetHistogram(
            "goal.fanout",
            {{"rule", profiles_[r.rule_index].head + "#" +
                          std::to_string(r.rule_index)},
             {"goal", std::to_string(g)}}));
      }
    }
    exec_.set_goal_stats(&goal_stats_);
    delta_rows_ =
        HistogramStage(obs_.metrics->GetHistogram("seminaive.delta_rows"));
    pops_per_fire_ =
        HistogramStage(obs_.metrics->GetHistogram("choice.pops_per_fire"));
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
  stats_.exec = exec_.stats();
  stats_.queues = AggregateQueueStats();
  if (obs_.metrics != nullptr) PublishMetrics();
  return st;
}

void FixpointDriver::FlushMetrics() noexcept {
  if (obs_.metrics == nullptr) return;
  admissible_->Add(std::exchange(admissible_staged_, 0));
  inadmissible_->Add(std::exchange(inadmissible_staged_, 0));
  delta_rows_.Flush();
  pops_per_fire_.Flush();
  for (std::vector<GoalStats>& row : goal_stats_) {
    for (GoalStats& gs : row) gs.fanout.Flush();
  }
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

uint32_t FixpointDriver::ApplyWeight(const CompiledRule& rule) {
  return obs_enabled_ ? apply_timers_[rule.rule_index].Next(sample_every_)
                      : 0;
}

void FixpointDriver::RecordApply(RuleProfile* prof, uint64_t start_ns,
                                 uint32_t weight, const char* cat) {
  const uint64_t end_ns = ObsNowNs();
  const uint64_t dur = end_ns - start_ns;
  prof->wall_ns += dur * weight;
  if (prof->latency != nullptr) prof->latency->Record(dur);
  if (obs_.tracer != nullptr) {
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
  // Parallel to thinned_events_.
  static constexpr FlightEventKind kThinned[] = {
      FlightEventKind::kRound, FlightEventKind::kStage,
      FlightEventKind::kGammaFire, FlightEventKind::kChoiceReject};
  for (size_t i = 0; i < std::size(kThinned); ++i) {
    if (kind != kThinned[i]) continue;
    const uint64_t n = ++thinned_events_[i];
    if (n > kEventsInFull && n % kEventThinning != 0) return;
    if (kind != FlightEventKind::kChoiceReject) FlushMetrics();
    break;
  }
  if (obs_.recorder != nullptr) {
    obs_.recorder->Record(kind, a0, a1, run_counters());
  }
}

void FixpointDriver::PublishMetrics() {
  FlushMetrics();
  MetricsRegistry& m = *obs_.metrics;
  m.GetCounter("fixpoint.saturation_rounds")->Add(stats_.saturation_rounds);
  m.GetCounter("fixpoint.gamma_firings")->Add(stats_.gamma_firings);
  m.GetCounter("fixpoint.stages_assigned")->Add(stats_.stages_assigned);
  m.GetCounter("exec.solutions")->Add(exec_.stats().solutions);
  m.GetCounter("exec.inserts")->Add(exec_.stats().inserts);
  m.GetCounter("exec.scan_rows")->Add(exec_.stats().scan_rows);
  m.GetCounter("guard.checks")->Add(guard_ != nullptr ? guard_->checks() : 0);
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
  const uint32_t weight = ApplyWeight(rule);
  const uint64_t t0 = weight != 0 ? ObsNowNs() : 0;
  size_t attempted = 0;
  const size_t n = exec_.ApplyRule(rule, delta_occurrence, &attempted);
  prof.tuples += n;
  prof.dedup_hits += attempted - n;
  if (weight != 0) RecordApply(&prof, t0, weight, "rule");
}

void FixpointDriver::EvalAggregate(const CompiledRule& rule) {
  RuleProfile& prof = profiles_[rule.rule_index];
  ++prof.invocations;
  const uint32_t weight = ApplyWeight(rule);
  const uint64_t t0 = weight != 0 ? ObsNowNs() : 0;
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
  // Copied into a group only when it is kept.
  std::vector<Value> head(rule.head_arity);
  exec_.Enumerate(rule, rule.generator, CompiledScan::kNoOccurrence, &frame,
                  [&](BindingFrame& f) {
                    Value cost, group;
                    if (!EvalTerm(rule.pool, rule.cost_term, f, store_,
                                  &cost) ||
                        !EvalTerm(rule.pool, rule.group_term, f, store_,
                                  &group)) {
                      return true;  // untyped binding: contributes nothing
                    }
                    if (!exec_.BuildHead(rule, f, head.data())) return true;
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
                      g.heads.push_back(head);
                      if (prov_) g.provs.push_back(prov_trail_);
                    } else if (c == 0) {
                      g.heads.push_back(head);
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
  if (weight != 0) RecordApply(&prof, t0, weight, "rule");
}

void FixpointDriver::InsertCandidates(GammaState* g,
                                      uint32_t delta_occurrence) {
  const CompiledRule& rule = *g->rule;
  RuleProfile& prof = profiles_[rule.rule_index];
  ++prof.invocations;
  const uint32_t weight = ApplyWeight(rule);
  const uint64_t t0 = weight != 0 ? ObsNowNs() : 0;
  const uint64_t pushed_before = g->queue->stats().inserted;
  gen_frame_.Reset(rule.num_slots);
  exec_.Enumerate(rule, PlanFor(rule, delta_occurrence), delta_occurrence,
                  &gen_frame_,
                  [this, g](BindingFrame& f) {
                    PushCandidate(g, f);
                    return true;
                  });
  prof.candidates += g->queue->stats().inserted - pushed_before;
  if (weight != 0) RecordApply(&prof, t0, weight, "rule");
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

  PlanSweeps(&ctx);

  // Round 0: full evaluation of every rule.
  GDLOG_RETURN_IF_ERROR(GuardCheck(FaultInjector::kEvalSaturate));
  for (const CompiledRule* r : ctx.plain) {
    EvalPlain(*r, CompiledScan::kNoOccurrence);
  }
  for (const CompiledRule* r : ctx.aggregate) EvalAggregate(*r);
  for (GammaState* g : ctx.gammas) {
    InsertCandidates(g, CompiledScan::kNoOccurrence);
  }

  const uint64_t loop_t0 = obs_enabled_ ? ObsNowNs() : 0;
  const uint64_t saturate_ns_before = stats_.saturate_ns;
  const Status loop_status = StageLoop(&ctx);
  if (obs_enabled_) {
    // γ time is the remainder: the loop's wall time less the (sampled)
    // time of the Saturate calls it made.
    const uint64_t loop_ns = ObsNowNs() - loop_t0;
    const uint64_t saturate_ns = stats_.saturate_ns - saturate_ns_before;
    stats_.gamma_ns += loop_ns > saturate_ns ? loop_ns - saturate_ns : 0;
  }
  FlushMetrics();
  GDLOG_RETURN_IF_ERROR(loop_status);

  clique_span.AddArg("relations", static_cast<int64_t>(ctx.relations.size()));
  clique_span.AddArg("stages", ctx.stage_counter);
  for (PredicateId id : ctx.relations) catalog_->relation(id).SealEpoch();
  return Status::OK();
}

namespace {

/// Appends the relation of every scan in `plan`, NotExists subplans
/// included.
void AddScannedPreds(const std::vector<CompiledLiteral>& plan,
                     std::vector<PredicateId>* out) {
  for (const CompiledLiteral& lit : plan) {
    if (lit.kind == CompiledLiteral::Kind::kScan) out->push_back(lit.scan.pred);
    AddScannedPreds(lit.sub, out);
  }
}

/// Appends every relation a goal of `rule` reads: its generator (and so
/// its delta variants) and, unless `generator_only`, its post plan.
void AddReadPreds(const CompiledRule& rule, bool generator_only,
                  std::vector<PredicateId>* out) {
  AddScannedPreds(rule.generator, out);
  if (!generator_only) AddScannedPreds(rule.post, out);
}

bool Has(const std::vector<PredicateId>& ids, PredicateId id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

}  // namespace

void FixpointDriver::PlanSweeps(CliqueCtx* ctx) const {
  std::vector<PredicateId> flat_reads;      // by a flat or aggregate rule
  std::vector<PredicateId> saturate_reads;  // by a rule Saturate evaluates
  std::vector<PredicateId> non_flat_heads;  // aggregate and γ heads
  std::vector<PredicateId> gamma_heads;
  for (const CompiledRule* r : ctx->plain) {
    AddReadPreds(*r, /*generator_only=*/false, &flat_reads);
    if (r->recursive) AddReadPreds(*r, false, &saturate_reads);
  }
  for (const CompiledRule* r : ctx->aggregate) {
    AddReadPreds(*r, /*generator_only=*/false, &flat_reads);
    if (r->recompute_full) AddReadPreds(*r, false, &saturate_reads);
    non_flat_heads.push_back(r->head_pred);
  }
  for (const GammaState* g : ctx->gammas) {
    // Saturate runs a γ rule's generator only; its post plan runs at a
    // firing, over full windows.
    if (g->rule->recursive) {
      AddReadPreds(*g->rule, /*generator_only=*/true, &saturate_reads);
    }
    non_flat_heads.push_back(g->rule->head_pred);
    gamma_heads.push_back(g->rule->head_pred);
  }
  for (const CompiledRule* r : ctx->plain) {
    const PredicateId head = r->head_pred;
    if (!Has(non_flat_heads, head) && !Has(flat_reads, head) &&
        !Has(ctx->chained, head)) {
      ctx->chained.push_back(head);
    }
  }
  ctx->firing_feeds_saturate =
      std::any_of(gamma_heads.begin(), gamma_heads.end(),
                  [&](PredicateId id) { return Has(saturate_reads, id); });
}

Status FixpointDriver::StageLoop(CliqueCtx* ctx) {
  const DependencyGraph& graph = *analysis_->graph;
  GDLOG_RETURN_IF_ERROR(Saturate(ctx));
  // Alternate γ and Q∞ until γ fires nothing.
  for (;;) {
    if (ctx->has_next && !ctx->stage_seeded) {
      // Initialize the stage counter past every stage value the exit
      // rules (or a non-next choice rule's firings) produced, e.g.
      // prm(nil, a, 0, 0) puts 0 in play. Until some stage value is in
      // play, no next rule fires: a next rule's stage I needs a
      // predecessor S = I - 1 in the stable model.
      bool seen = false;
      int64_t max_stage = 0;
      for (PredicateId id : ctx->relations) {
        const Relation& rel = catalog_->relation(id);
        const PredIndex p = graph.Lookup(rel.name(), rel.arity());
        const int pos = analysis_->stage_arg[p];
        if (pos < 0) continue;
        for (RowId row = 0; row < rel.size(); ++row) {
          const Value v = rel.Row(row)[pos];
          if (!v.is_int()) continue;
          max_stage = seen ? std::max(max_stage, v.AsInt()) : v.AsInt();
          seen = true;
        }
      }
      if (seen) {
        ctx->stage_counter = max_stage + 1;
        ctx->stage_seeded = true;
      }
    }
    GDLOG_RETURN_IF_ERROR(GuardCheck(FaultInjector::kEvalGamma));
    if (!GammaPhase(ctx)) return Status::OK();
    if (ctx->firing_feeds_saturate) GDLOG_RETURN_IF_ERROR(Saturate(ctx));
  }
}

Status FixpointDriver::Saturate(CliqueCtx* ctx) {
  TraceSpan span(obs_.tracer, "Saturate", "fixpoint");
  const uint32_t weight =
      obs_enabled_ ? saturate_timer_.Next(sample_every_) : 0;
  const uint64_t t0 = weight != 0 ? ObsNowNs() : 0;
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
        delta_rows_.Record(d);
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
    // Chained deltas: the rows the flat rules just appended feed the
    // generators in this sweep (no rule that ran before reads them).
    for (PredicateId id : ctx->chained) {
      const size_t d = catalog_->relation(id).ExtendDelta();
      if (d > 0) {
        delta_total += d;
        delta_rows_.Record(d);
      }
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
  if (weight != 0) stats_.saturate_ns += (ObsNowNs() - t0) * weight;
  return guard_status;
}

bool FixpointDriver::PopAndFire(CliqueCtx* ctx, GammaState* g) {
  // Section 6's retrieval, for both γ kinds: pop the best live candidate
  // of Q_r and fire it, or move it to R_r and pop the next. One firing
  // per call: γ fires a single chosen instance per iteration, alternating
  // with saturation, so different tie-break seeds reach different stable
  // models.
  const CompiledRule& rule = *g->rule;
  const bool group_filter = rule.has_extremum && !rule.is_next;
  BindingFrame& frame = fire_frame_;
  std::vector<Value>& head = head_buf_;
  head.resize(rule.head_arity);
  ChoiceAuditEntry entry;  // rejections accumulate across pops
  uint64_t pops = 0;
  const uint64_t live_before = audit_ != nullptr ? g->queue->LiveSize() : 0;
  while (auto cand = g->queue->Pop()) {
    ++pops;
    RestoreSnapshot(rule, cand->snapshot, &frame);
    if (rule.is_next) {
      frame.Bind(rule.stage_slot, Value::Int(ctx->stage_counter));
    }
    bool fired = false;
    if (!group_filter || InGroupExtremum(g, frame, &entry)) {
      bool saw_solution = false;
      auto fire = [&](BindingFrame& f) {
        saw_solution = true;
        if (!choice_.Admissible(rule, f)) {
          ++inadmissible_staged_;
          ++entry.rejected_fd;
          return true;
        }
        ++admissible_staged_;
        // Build now, insert after: the post plan may hold index iterators
        // on the head relation. Build before Commit: a solution whose
        // head term fails to evaluate (an untyped binding, e.g.
        // arithmetic over a symbol) derives nothing and must not burn the
        // choice.
        if (!exec_.BuildHead(rule, f, head.data())) {
          ++entry.rejected_post;
          return true;
        }
        choice_.Commit(rule, f);
        // The firing's post premises; the trail pops back to empty as the
        // enumeration unwinds, so copy here.
        if (prov_) post_prov_ = prov_trail_;
        fired = true;
        return false;  // one firing per γ
      };
      if (rule.post.empty()) {
        // The restored frame is the one solution.
        ++exec_.stats().solutions;
        fire(frame);
      } else {
        exec_.Enumerate(rule, rule.post, CompiledScan::kNoOccurrence, &frame,
                        fire);
      }
      if (!saw_solution) ++entry.rejected_post;
    }
    if (!fired) {
      Record(FlightEventKind::kChoiceReject,
             static_cast<int64_t>(rule.rule_index),
             static_cast<int64_t>(g->queue->LiveSize()));
      g->queue->MarkRedundant(*cand);
      continue;
    }
    RuleProfile& prof = profiles_[rule.rule_index];
    Relation& head_rel = catalog_->relation(rule.head_pred);
    const auto res = head_rel.Insert(TupleView(head));
    if (res.inserted) {
      ++exec_.stats().inserts;
      ++prof.tuples;
      if (prov_) {
        // Full justification: the generator premises carried by the
        // candidate, then the post plan's premises at the firing.
        prems_buf_.assign(cand->premises.begin(), cand->premises.end());
        prems_buf_.insert(prems_buf_.end(), post_prov_.begin(),
                          post_prov_.end());
        head_rel.Annotate(res.row, rule.rule_index, prems_buf_.data(),
                          prems_buf_.size());
      }
    } else {
      ++prof.dedup_hits;
    }
    g->queue->MarkFired(*cand);
    ++prof.firings;
    ++stats_.gamma_firings;
    pops_per_fire_.Record(pops);
    const int64_t stage = ctx->stage_counter;
    const bool traced = obs_.tracer != nullptr && obs_.tracer->Sample();
    if (rule.is_next) {
      ++ctx->stage_counter;
      ++stats_.stages_assigned;
      entry.stage = stage;
      if (traced) {
        obs_.tracer->Instant("stage.advance", "gamma",
                             {{"rule", rule.rule_index}, {"stage", stage}});
      }
      Record(FlightEventKind::kStage, static_cast<int64_t>(rule.rule_index),
             stage);
    } else {
      if (traced) {
        obs_.tracer->Instant("gamma.fire", "gamma",
                             {{"rule", rule.rule_index}});
      }
      Record(FlightEventKind::kGammaFire,
             static_cast<int64_t>(rule.rule_index),
             static_cast<int64_t>(stats_.gamma_firings));
    }
    if (audit_ != nullptr) {
      entry.rule_index = rule.rule_index;
      entry.gamma_index = rule.gamma_index;
      entry.firing = stats_.gamma_firings;
      entry.candidate_set = live_before;
      entry.pops = pops;
      entry.ties =
          rule.has_extremum ? g->queue->CountLiveEqualCost(cand->cost) : 0;
      entry.cost = rule.has_extremum ? cand->cost : Value::Int(0);
      entry.witness = head_rel.name() + TupleToString(*store_, TupleView(head));
      entry.head_pred = rule.head_pred;
      entry.head_row = res.row;
      AddAuditEntry(std::move(entry));
    }
    return true;
  }
  return false;
}

bool FixpointDriver::InGroupExtremum(GammaState* g, const BindingFrame& frame,
                                     ChoiceAuditEntry* entry) {
  // Pops arrive in cost order, so the first candidate ever seen in a
  // group carries the group's true extremum; a later one with another
  // cost was never an instance of the rule. The cost term evaluated at
  // enqueue, so it evaluates here too; the group term evaluates first
  // here and can fail on an untyped binding, and such a candidate was
  // never an instance either.
  const CompiledRule& rule = *g->rule;
  Value cost;
  group_buf_.clear();
  if (!EvalTerm(rule.pool, rule.cost_term, frame, store_, &cost) ||
      !EvalTermComponents(rule.pool, rule.group_term, frame, store_,
                          &group_buf_)) {
    ++entry->rejected_post;
    return false;
  }
  bool fresh = false;
  const uint32_t id = g->group_best.Insert(group_buf_, &fresh);
  Value& best = g->group_best.Values(id)[0];
  if (fresh) {
    best = cost;
    Charge(&g->group_charged, g->group_best.ApproxBytes());
  } else if (best != cost) {
    ++entry->rejected_extremum;
    return false;
  }
  return true;
}

bool FixpointDriver::GammaPhase(CliqueCtx* ctx) {
  TraceSpan span(obs_.tracer, "GammaPhase", "fixpoint");
  // Choice rules first; next rules once a stage is in play. The phase
  // ends at the first firing.
  for (GammaState* g : ctx->gammas) {
    if (!g->rule->is_next && PopAndFire(ctx, g)) return true;
  }
  if (!ctx->stage_seeded) return false;
  for (GammaState* g : ctx->gammas) {
    if (g->rule->is_next && PopAndFire(ctx, g)) return true;
  }
  return false;
}

}  // namespace gdlog
