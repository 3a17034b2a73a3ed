"""Scenario files: a strict, versioned JSON schema for whole towns.

Loading either returns a fully cross-checked Scenario or raises with every
problem found, each tagged with its path. Unknown fields are rejected
outright; every variable, action and rule reference must resolve; the
fallback behavior tree must provably end in a default action. Anything the
runtime would otherwise have to guess is settled here, at load time.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Any, Optional, Union

from .behavior import ActionLeaf, BTNode, Condition, Selector, Sequence, guarantees_action, leaf_action_ids
from .core import (
    COMPARE,
    CausalVariable,
    Effect,
    LEVEL_BY_LABEL,
    LedgerRequirement,
    LevelThresholds,
    MacroEventRule,
    NpcProfile,
    Scalar,
    SEASONS,
    TagSelector,
    VariablePredicate,
    WorldLedger,
    is_valid_tag,
    validate_profile,
)
from .director import DriftEntry, DriftSchedule
from .hub import ActivationMatcher, DirectiveTemplate, DomainModuleSpec, ParameterExpr
from .npc import ActionBinding, TagMigrationRule, UtilityWeights

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """All validation problems from one load attempt, path-tagged."""

    def __init__(self, errors: list[str]) -> None:
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


@dataclass(frozen=True)
class Scenario:
    name: str
    version: str
    schema_version: int
    seed_default: int
    thresholds: LevelThresholds
    weights: UtilityWeights
    season: str
    variables: tuple[CausalVariable, ...]
    drifts: DriftSchedule
    rules: tuple[MacroEventRule, ...]
    modules: tuple[DomainModuleSpec, ...]
    catalog: dict[str, ActionBinding]
    disposition_table: dict[str, dict[str, float]]
    npcs: tuple[NpcProfile, ...]
    migration_rules: tuple[TagMigrationRule, ...]
    tree: BTNode


def initial_ledger(scenario: Scenario) -> WorldLedger:
    return WorldLedger(
        tick=0,
        variables={v.name: v for v in scenario.variables},
        season=scenario.season,
        thresholds=scenario.thresholds,
    )


# --- validation helpers ------------------------------------------------------


class _Errors:
    def __init__(self) -> None:
        self.items: list[str] = []

    def add(self, path: str, message: str) -> None:
        self.items.append(f"{path}: {message}")


def _is_num(x: Any) -> bool:
    # Finite and float-sized: NaN, +-Infinity and huge integers fail the bound.
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _dict_or_empty(value: Any) -> dict:
    return value if isinstance(value, dict) else {}


def _check_obj(obj: Any, path: str, required: tuple[str, ...], optional: tuple[str, ...], errors: _Errors) -> bool:
    """Strict object shape check: required keys present, nothing unknown."""
    if not isinstance(obj, dict):
        errors.add(path, f"expected an object, got {type(obj).__name__}")
        return False
    ok = True
    for key in required:
        if key not in obj:
            errors.add(path, f"missing required field '{key}'")
            ok = False
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            errors.add(path, f"unknown field '{key}'")
            ok = False
    return ok


def _num_field(obj: dict, key: str, path: str, errors: _Errors,
               lo: Optional[float] = None, hi: Optional[float] = None,
               default: Optional[float] = None) -> Optional[float]:
    if key not in obj:
        return default
    value = obj[key]
    if not _is_num(value):
        errors.add(f"{path}.{key}", f"expected a finite number, got {value!r}")
        return default
    if lo is not None and value < lo:
        errors.add(f"{path}.{key}", f"{value} below minimum {lo}")
    if hi is not None and value > hi:
        errors.add(f"{path}.{key}", f"{value} above maximum {hi}")
    return value


def _int_field(obj: dict, key: str, path: str, errors: _Errors,
               lo: Optional[int] = None, default: Optional[int] = None) -> Optional[int]:
    if key not in obj:
        return default
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool):
        errors.add(f"{path}.{key}", f"expected an integer, got {value!r}")
        return default
    if lo is not None and value < lo:
        errors.add(f"{path}.{key}", f"{value} below minimum {lo}")
    return value


def _str_field(obj: dict, key: str, path: str, errors: _Errors, default: Optional[str] = None) -> Optional[str]:
    if key not in obj:
        return default
    value = obj[key]
    if not isinstance(value, str):
        errors.add(f"{path}.{key}", f"expected a string, got {value!r}")
        return default
    return value


def _tag_field(obj: dict, key: str, path: str, errors: _Errors) -> Optional[str]:
    value = _str_field(obj, key, path, errors)
    if value is not None and not is_valid_tag(value):
        errors.add(f"{path}.{key}", f"invalid identifier {value!r}")
    return value


def _parse_predicate(obj: Any, path: str, variables: set[str], errors: _Errors) -> Optional[VariablePredicate]:
    if not _check_obj(obj, path, ("variable", "op"), ("level", "intensity"), errors):
        return None
    variable = _str_field(obj, "variable", path, errors)
    op = _str_field(obj, "op", path, errors)
    if variable is not None and variable not in variables:
        errors.add(f"{path}.variable", f"unknown variable {variable!r}")
    if op is not None and op not in (">=", "<="):
        errors.add(f"{path}.op", f"comparator must be '>=' or '<=', got {op!r}")
    has_level, has_intensity = "level" in obj, "intensity" in obj
    if has_level == has_intensity:
        errors.add(path, "exactly one of 'level' or 'intensity' is required")
        return None
    level = None
    intensity = None
    if has_level:
        label = _str_field(obj, "level", path, errors)
        if label is not None:
            if label not in LEVEL_BY_LABEL:
                errors.add(f"{path}.level", f"unknown level {label!r}")
            else:
                level = LEVEL_BY_LABEL[label]
    else:
        intensity = _num_field(obj, "intensity", path, errors, lo=0.0, hi=1.0)
    if variable is None or op is None or (level is None and intensity is None):
        return None
    return VariablePredicate(variable=variable, op=op, level=level, intensity=intensity)


def _parse_selector(obj: Any, path: str, errors: _Errors) -> Optional[TagSelector]:
    if not _check_obj(obj, path, ("mode", "tags"), (), errors):
        return None
    mode = _str_field(obj, "mode", path, errors)
    if mode is not None and mode not in ("any", "all"):
        errors.add(f"{path}.mode", f"mode must be 'any' or 'all', got {mode!r}")
    tags = obj.get("tags")
    if not isinstance(tags, list) or not tags:
        errors.add(f"{path}.tags", "non-empty list of tags required")
        return None
    for i, tag in enumerate(tags):
        if not isinstance(tag, str) or not is_valid_tag(tag):
            errors.add(f"{path}.tags[{i}]", f"invalid tag {tag!r}")
    if mode is None:
        return None
    return TagSelector(mode=mode, tags=tuple(tags))


def _parse_tree(obj: Any, path: str, errors: _Errors) -> Optional[BTNode]:
    if not isinstance(obj, dict) or "kind" not in obj:
        errors.add(path, "expected a node object with a 'kind' field")
        return None
    kind = obj["kind"]
    if kind in ("selector", "sequence"):
        if not _check_obj(obj, path, ("kind", "children"), (), errors):
            return None
        children = obj.get("children")
        if not isinstance(children, list) or not children:
            errors.add(f"{path}.children", "non-empty list required")
            return None
        parsed = [_parse_tree(c, f"{path}.children[{i}]", errors) for i, c in enumerate(children)]
        if any(p is None for p in parsed):
            return None
        nodes = tuple(p for p in parsed if p is not None)
        return Selector(nodes) if kind == "selector" else Sequence(nodes)
    if kind == "condition":
        if not _check_obj(obj, path, ("kind", "field", "op", "value"), (), errors):
            return None
        fld = _str_field(obj, "field", path, errors)
        op = _str_field(obj, "op", path, errors)
        value = _num_field(obj, "value", path, errors)
        if op is not None and op not in COMPARE:
            errors.add(f"{path}.op", f"comparator must be one of < <= > >=, got {op!r}")
            return None
        if fld is None or op is None or value is None:
            return None
        namespace = fld.partition(".")[0]
        if namespace not in ("needs", "state", "personality", "var"):
            errors.add(f"{path}.field", f"field {fld!r} must start with needs./state./personality./var.")
            return None
        return Condition(field=fld, op=op, value=value)
    if kind == "action":
        if not _check_obj(obj, path, ("kind", "action_id"), (), errors):
            return None
        action_id = _str_field(obj, "action_id", path, errors)
        if action_id is None:
            return None
        return ActionLeaf(action_id=action_id)
    errors.add(f"{path}.kind", f"unknown node kind {kind!r}")
    return None


# --- section parsers ---------------------------------------------------------


def _parse_variables(raw: Any, errors: _Errors) -> list[CausalVariable]:
    out: list[CausalVariable] = []
    if not isinstance(raw, list):
        errors.add("ledger_init.variables", "expected a list")
        return out
    seen: set[str] = set()
    for i, obj in enumerate(raw):
        path = f"ledger_init.variables[{i}]"
        if not _check_obj(obj, path, ("name", "intensity"), (), errors):
            continue
        name = _tag_field(obj, "name", path, errors)
        intensity = _num_field(obj, "intensity", path, errors, lo=0.0, hi=1.0)
        if name is None or intensity is None:
            continue
        if name in seen:
            errors.add(f"{path}.name", f"duplicate variable {name!r}")
            continue
        seen.add(name)
        out.append(CausalVariable(name=name, intensity=float(intensity), history=((0, float(intensity)),)))
    return out


def _parse_drifts(raw: Any, variables: set[str], errors: _Errors) -> DriftSchedule:
    entries: list[DriftEntry] = []
    if raw is None:
        return DriftSchedule()
    if not isinstance(raw, list):
        errors.add("drift_schedule", "expected a list")
        return DriftSchedule()
    for i, obj in enumerate(raw):
        path = f"drift_schedule[{i}]"
        if not _check_obj(obj, path, ("variable", "delta_per_tick", "start_tick", "end_tick"), ("noise",), errors):
            continue
        variable = _str_field(obj, "variable", path, errors)
        delta = _num_field(obj, "delta_per_tick", path, errors)
        start = _int_field(obj, "start_tick", path, errors, lo=0)
        end = _int_field(obj, "end_tick", path, errors, lo=0)
        noise = _num_field(obj, "noise", path, errors, lo=0.0, default=0.0)
        if variable is not None and variable not in variables:
            errors.add(f"{path}.variable", f"unknown variable {variable!r}")
            continue
        if None in (variable, delta, start, end):
            continue
        if start > end:
            errors.add(path, f"start_tick {start} exceeds end_tick {end}")
            continue
        entries.append(DriftEntry(variable, float(delta), start, end, float(noise)))
    return DriftSchedule(tuple(entries))


def _parse_rules(raw: Any, variables: set[str], errors: _Errors) -> list[MacroEventRule]:
    out: list[MacroEventRule] = []
    if raw is None:
        return out
    if not isinstance(raw, list):
        errors.add("macro_rules", "expected a list")
        return out
    seen: set[str] = set()
    for i, obj in enumerate(raw):
        path = f"macro_rules[{i}]"
        if not _check_obj(obj, path, ("id", "name", "trigger"),
                          ("consistency_requirements", "effects", "cooldown_ticks"), errors):
            continue
        rule_id = _tag_field(obj, "id", path, errors)
        name = _str_field(obj, "name", path, errors)
        cooldown = _int_field(obj, "cooldown_ticks", path, errors, lo=0, default=0)
        if rule_id in seen:
            errors.add(f"{path}.id", f"duplicate rule id {rule_id!r}")
            continue
        if rule_id is not None:
            seen.add(rule_id)

        trigger_raw = obj.get("trigger")
        if not isinstance(trigger_raw, list) or not trigger_raw:
            errors.add(f"{path}.trigger", "non-empty list of predicates required")
            continue
        trigger = [_parse_predicate(p, f"{path}.trigger[{j}]", variables, errors)
                   for j, p in enumerate(trigger_raw)]

        reqs_raw = obj.get("consistency_requirements", [])
        effs_raw = obj.get("effects", [])
        if not isinstance(reqs_raw, list):
            errors.add(f"{path}.consistency_requirements", "expected a list")
            reqs_raw = []
        if not isinstance(effs_raw, list):
            errors.add(f"{path}.effects", "expected a list")
            effs_raw = []

        requirements: list[LedgerRequirement] = []
        for j, req in enumerate(reqs_raw):
            rpath = f"{path}.consistency_requirements[{j}]"
            if not _check_obj(req, rpath, ("field", "op", "value"), (), errors):
                continue
            fld = _str_field(req, "field", rpath, errors)
            op = _str_field(req, "op", rpath, errors)
            value = req.get("value")
            if op is not None and op not in ("eq", "ne", "ge", "le"):
                errors.add(f"{rpath}.op", f"op must be one of eq ne ge le, got {op!r}")
                continue
            if fld is None or op is None:
                continue
            if fld == "season":
                if not isinstance(value, str) or value not in SEASONS:
                    errors.add(f"{rpath}.value", f"season must be one of {SEASONS}, got {value!r}")
                    continue
                if op in ("ge", "le"):
                    errors.add(f"{rpath}.op", "season only supports eq/ne")
                    continue
            elif fld == "tick":
                if not _is_num(value):
                    errors.add(f"{rpath}.value", f"expected a finite number, got {value!r}")
                    continue
            elif fld in variables:
                if isinstance(value, str):
                    if value not in LEVEL_BY_LABEL:
                        errors.add(f"{rpath}.value", f"unknown level {value!r}")
                        continue
                elif not _is_num(value):
                    errors.add(f"{rpath}.value", f"expected a level label or number, got {value!r}")
                    continue
            else:
                errors.add(f"{rpath}.field", f"unknown ledger field {fld!r}")
                continue
            requirements.append(LedgerRequirement(fld, op, value))

        effects: list[Effect] = []
        for j, eff in enumerate(effs_raw):
            epath = f"{path}.effects[{j}]"
            if not _check_obj(eff, epath, ("variable", "delta_per_tick", "duration_ticks"), (), errors):
                continue
            variable = _str_field(eff, "variable", epath, errors)
            delta = _num_field(eff, "delta_per_tick", epath, errors)
            duration = _int_field(eff, "duration_ticks", epath, errors, lo=1)
            if variable is not None and variable not in variables:
                errors.add(f"{epath}.variable", f"unknown variable {variable!r}")
                continue
            if None in (variable, delta, duration):
                continue
            effects.append(Effect(variable, float(delta), duration))

        if rule_id is None or name is None or any(t is None for t in trigger):
            continue
        out.append(MacroEventRule(
            id=rule_id,
            name=name,
            trigger=tuple(t for t in trigger if t is not None),
            consistency_requirements=tuple(requirements),
            effects=tuple(effects),
            cooldown_ticks=cooldown or 0,
        ))
    return out


def _parse_parameters(raw: Any, path: str, variables: set[str], errors: _Errors) -> dict[str, Union[Scalar, ParameterExpr]]:
    out: dict[str, Union[Scalar, ParameterExpr]] = {}
    if raw is None:
        return out
    if not isinstance(raw, dict):
        errors.add(path, "expected an object")
        return out
    for name, value in raw.items():
        ppath = f"{path}.{name}"
        if isinstance(value, dict):
            if not _check_obj(value, ppath, ("variable",), ("scale", "offset"), errors):
                continue
            variable = _str_field(value, "variable", ppath, errors)
            scale = _num_field(value, "scale", ppath, errors, default=1.0)
            offset = _num_field(value, "offset", ppath, errors, default=0.0)
            if variable is not None and variable not in variables:
                errors.add(f"{ppath}.variable", f"unknown variable {variable!r}")
                continue
            if variable is None:
                continue
            out[name] = ParameterExpr(variable, float(scale), float(offset))
        elif _is_num(value) or isinstance(value, str):
            out[name] = value
        else:
            errors.add(ppath, f"expected a scalar or an expression object, got {value!r}")
    return out


def _parse_modules(raw: Any, variables: set[str], rule_ids: set[str],
                   action_ids: set[str], errors: _Errors) -> list[DomainModuleSpec]:
    out: list[DomainModuleSpec] = []
    if raw is None:
        return out
    if not isinstance(raw, list):
        errors.add("domain_modules", "expected a list")
        return out
    seen: set[str] = set()
    for i, obj in enumerate(raw):
        path = f"domain_modules[{i}]"
        if not _check_obj(obj, path, ("id", "activation", "directives"), (), errors):
            continue
        module_id = _tag_field(obj, "id", path, errors)
        if module_id in seen:
            errors.add(f"{path}.id", f"duplicate module id {module_id!r}")
            continue
        if module_id is not None:
            seen.add(module_id)

        matchers: list[ActivationMatcher] = []
        activation_raw = obj.get("activation")
        if not isinstance(activation_raw, list) or not activation_raw:
            errors.add(f"{path}.activation", "non-empty list of matchers required")
            continue
        for j, m in enumerate(activation_raw):
            mpath = f"{path}.activation[{j}]"
            if not _check_obj(m, mpath, (), ("rule_id", "condition"), errors):
                continue
            if "rule_id" not in m and "condition" not in m:
                errors.add(mpath, "matcher needs 'rule_id' and/or 'condition'")
                continue
            rule_id = _str_field(m, "rule_id", mpath, errors)
            if rule_id is not None and rule_id not in rule_ids:
                errors.add(f"{mpath}.rule_id", f"unknown rule {rule_id!r}")
                continue
            condition = None
            if "condition" in m:
                condition = _parse_predicate(m["condition"], f"{mpath}.condition", variables, errors)
                if condition is None:
                    continue
            matchers.append(ActivationMatcher(rule_id=rule_id, condition=condition))

        templates: list[DirectiveTemplate] = []
        directives_raw = obj.get("directives")
        if not isinstance(directives_raw, list):
            errors.add(f"{path}.directives", "expected a list")
            continue
        for j, t in enumerate(directives_raw):
            tpath = f"{path}.directives[{j}]"
            if not _check_obj(t, tpath, ("selector", "action_id", "base_priority", "risk", "ttl_ticks"),
                              ("parameters", "condition"), errors):
                continue
            selector = _parse_selector(t.get("selector"), f"{tpath}.selector", errors)
            action_id = _str_field(t, "action_id", tpath, errors)
            base_priority = _num_field(t, "base_priority", tpath, errors, lo=0.0, hi=1.0)
            risk = _num_field(t, "risk", tpath, errors, lo=0.0, hi=1.0)
            ttl = _int_field(t, "ttl_ticks", tpath, errors, lo=1)
            parameters = _parse_parameters(t.get("parameters"), f"{tpath}.parameters", variables, errors)
            condition = None
            if "condition" in t:
                condition = _parse_predicate(t["condition"], f"{tpath}.condition", variables, errors)
            if action_id is not None and action_id not in action_ids:
                errors.add(f"{tpath}.action_id", f"unknown action {action_id!r}")
                continue
            if None in (selector, action_id, base_priority, risk, ttl):
                continue
            templates.append(DirectiveTemplate(
                selector=selector,
                action_id=action_id,
                parameters=parameters,
                base_priority=float(base_priority),
                risk=float(risk),
                ttl_ticks=ttl,
                condition=condition,
            ))

        if module_id is None:
            continue
        out.append(DomainModuleSpec(id=module_id, activation=tuple(matchers), templates=tuple(templates)))
    return out


def _parse_catalog(raw: Any, errors: _Errors) -> dict[str, ActionBinding]:
    out: dict[str, ActionBinding] = {}
    if not isinstance(raw, list) or not raw:
        errors.add("action_catalog", "non-empty list of action bindings required")
        return out
    for i, obj in enumerate(raw):
        path = f"action_catalog[{i}]"
        if not _check_obj(obj, path, ("action_id",),
                          ("trait_affinities", "satisfies_needs", "local_effects", "default"), errors):
            continue
        action_id = _tag_field(obj, "action_id", path, errors)
        if action_id is None:
            continue
        if action_id in out:
            errors.add(f"{path}.action_id", f"duplicate action {action_id!r}")
            continue
        affinities: dict[str, float] = {}
        for trait, sign in _dict_or_empty(obj.get("trait_affinities")).items():
            if isinstance(sign, bool) or sign not in (1, -1):
                errors.add(f"{path}.trait_affinities.{trait}", f"sign must be 1 or -1, got {sign!r}")
                continue
            affinities[trait] = float(sign)
        needs: dict[str, float] = {}
        for need, relief in _dict_or_empty(obj.get("satisfies_needs")).items():
            if not _is_num(relief) or not 0.0 <= relief <= 1.0:
                errors.add(f"{path}.satisfies_needs.{need}", f"relief must be in [0, 1], got {relief!r}")
                continue
            needs[need] = float(relief)
        effects: dict[str, float] = {}
        for key, delta in _dict_or_empty(obj.get("local_effects")).items():
            if not _is_num(delta):
                errors.add(f"{path}.local_effects.{key}", f"expected a finite number, got {delta!r}")
                continue
            effects[key] = float(delta)
        default = obj.get("default", False)
        if not isinstance(default, bool):
            errors.add(f"{path}.default", f"expected a boolean, got {default!r}")
            default = False
        out[action_id] = ActionBinding(
            action_id=action_id,
            trait_affinities=affinities,
            satisfies_needs=needs,
            local_effects=effects,
            default=default,
        )
    return out


def _parse_npcs(raw: Any, disposition_table: dict[str, dict[str, float]], errors: _Errors) -> list[NpcProfile]:
    out: list[NpcProfile] = []
    if not isinstance(raw, list):
        errors.add("npcs", "expected a list")
        return out
    seen: set[str] = set()
    for i, obj in enumerate(raw):
        path = f"npcs[{i}]"
        if not _check_obj(obj, path, ("id", "tags", "role_tag", "local_state"),
                          ("personality", "needs"), errors):
            continue
        npc_id = _str_field(obj, "id", path, errors)
        role_tag = _str_field(obj, "role_tag", path, errors)
        tags_raw = obj.get("tags")
        if not isinstance(tags_raw, list):
            errors.add(f"{path}.tags", "expected a list")
            continue
        for section in ("personality", "needs", "local_state"):
            values = obj.get(section)
            if values is not None and not isinstance(values, dict):
                errors.add(f"{path}.{section}", "expected an object")
                continue
            for key, value in _dict_or_empty(values).items():
                if not _is_num(value):
                    errors.add(f"{path}.{section}.{key}", f"expected a finite number, got {value!r}")
        if npc_id is None or role_tag is None:
            continue
        if npc_id in seen:
            errors.add(f"{path}.id", f"duplicate npc id {npc_id!r}")
            continue
        seen.add(npc_id)

        # Disposition tags contribute personality in tag order; explicit
        # entries override the table.
        personality: dict[str, float] = {}
        for tag in tags_raw:
            if isinstance(tag, str) and tag in disposition_table:
                personality.update(disposition_table[tag])
        personality.update(
            {k: float(v) for k, v in _dict_or_empty(obj.get("personality")).items() if _is_num(v)}
        )

        profile = NpcProfile(
            id=npc_id,
            tags=tuple(t for t in tags_raw if isinstance(t, str)),
            role_tag=role_tag,
            personality=personality,
            needs={k: float(v) for k, v in _dict_or_empty(obj.get("needs")).items() if _is_num(v)},
            local_state={k: float(v) for k, v in _dict_or_empty(obj.get("local_state")).items() if _is_num(v)},
        )
        violations = validate_profile(profile)
        for violation in violations:
            errors.add(path, violation)
        if not violations:
            out.append(profile)
    return out


def _parse_migrations(raw: Any, errors: _Errors) -> list[TagMigrationRule]:
    out: list[TagMigrationRule] = []
    if raw is None:
        return out
    if not isinstance(raw, list):
        errors.add("migration_rules", "expected a list")
        return out
    for i, obj in enumerate(raw):
        path = f"migration_rules[{i}]"
        if not _check_obj(obj, path, ("from_tag", "to_tag", "field", "op", "threshold"),
                          ("hysteresis_margin",), errors):
            continue
        from_tag = _tag_field(obj, "from_tag", path, errors)
        to_tag = _tag_field(obj, "to_tag", path, errors)
        fld = _str_field(obj, "field", path, errors)
        op = _str_field(obj, "op", path, errors)
        threshold = _num_field(obj, "threshold", path, errors)
        margin = _num_field(obj, "hysteresis_margin", path, errors, lo=0.0)
        if op is not None and op not in COMPARE:
            errors.add(f"{path}.op", f"comparator must be one of < <= > >=, got {op!r}")
            continue
        if None in (from_tag, to_tag, fld, op, threshold):
            continue
        if from_tag == to_tag:
            errors.add(path, "from_tag and to_tag must differ")
            continue
        out.append(TagMigrationRule(
            from_tag=from_tag,
            to_tag=to_tag,
            field=fld,
            op=op,
            threshold=float(threshold),
            hysteresis_margin=float(margin) if margin is not None else None,
        ))
    return out


# --- entry points ------------------------------------------------------------

_TOP_REQUIRED = ("schema_version", "meta", "ledger_init", "action_catalog", "npcs")
_TOP_OPTIONAL = (
    "seed_default",
    "level_thresholds",
    "utility_weights",
    "drift_schedule",
    "macro_rules",
    "domain_modules",
    "disposition_table",
    "migration_rules",
    "behavior_tree",
)


def load_scenario(text: str) -> Scenario:
    """Parse and validate scenario JSON. Raises ScenarioError carrying every
    problem found; on success all references are resolved and all bounds hold."""
    errors = _Errors()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"$: invalid JSON ({exc.msg} at line {exc.lineno})"]) from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ScenarioError([f"$: invalid JSON ({exc})"]) from exc
    if not isinstance(raw, dict):
        raise ScenarioError(["$: expected a top-level object"])

    _check_obj(raw, "$", _TOP_REQUIRED, _TOP_OPTIONAL, errors)

    schema_version = raw.get("schema_version")
    if schema_version != SCHEMA_VERSION:
        errors.add("schema_version", f"expected {SCHEMA_VERSION}, got {schema_version!r}")

    name, version = "", "1"
    meta = raw.get("meta")
    if _check_obj(meta, "meta", ("name",), ("version",), errors):
        name = _str_field(meta, "name", "meta", errors) or ""
        version = _str_field(meta, "version", "meta", errors, default="1") or "1"

    seed_default = _int_field(raw, "seed_default", "$", errors, lo=0, default=0) or 0

    thresholds = LevelThresholds()
    if "level_thresholds" in raw:
        obj = raw["level_thresholds"]
        if _check_obj(obj, "level_thresholds", ("elevated", "critical"), (), errors):
            elevated = _num_field(obj, "elevated", "level_thresholds", errors, lo=0.0, hi=1.0)
            critical = _num_field(obj, "critical", "level_thresholds", errors, lo=0.0, hi=1.0)
            if elevated is not None and critical is not None:
                if not 0.0 < elevated < critical:
                    errors.add("level_thresholds", f"need 0 < elevated < critical, got {elevated}, {critical}")
                else:
                    thresholds = LevelThresholds(float(elevated), float(critical))

    weights = UtilityWeights()
    if "utility_weights" in raw:
        obj = raw["utility_weights"]
        if _check_obj(obj, "utility_weights", (), ("base", "trait", "need", "risk", "threshold"), errors):
            weights = UtilityWeights(
                base=float(_num_field(obj, "base", "utility_weights", errors, lo=0.0, default=1.0)),
                trait=float(_num_field(obj, "trait", "utility_weights", errors, lo=0.0, default=1.0)),
                need=float(_num_field(obj, "need", "utility_weights", errors, lo=0.0, default=1.0)),
                risk=float(_num_field(obj, "risk", "utility_weights", errors, lo=0.0, default=1.0)),
                threshold=float(_num_field(obj, "threshold", "utility_weights", errors, default=0.5)),
            )

    season = "Temperate"
    variables: list[CausalVariable] = []
    ledger_init = raw.get("ledger_init")
    if _check_obj(ledger_init, "ledger_init", ("variables",), ("season",), errors):
        season_value = _str_field(ledger_init, "season", "ledger_init", errors, default="Temperate")
        if season_value not in SEASONS:
            errors.add("ledger_init.season", f"season must be one of {SEASONS}, got {season_value!r}")
        else:
            season = season_value
        variables = _parse_variables(ledger_init.get("variables"), errors)
    variable_names = {v.name for v in variables}

    disposition_table: dict[str, dict[str, float]] = {}
    if "disposition_table" in raw and not isinstance(raw["disposition_table"], dict):
        errors.add("disposition_table", "expected an object keyed by tag")
    for tag, traits in _dict_or_empty(raw.get("disposition_table")).items():
        path = f"disposition_table.{tag}"
        if not is_valid_tag(tag):
            errors.add(path, f"invalid tag {tag!r}")
            continue
        if not isinstance(traits, dict):
            errors.add(path, "expected an object of trait weights")
            continue
        entry: dict[str, float] = {}
        for trait, weight in traits.items():
            if not _is_num(weight) or not -1.0 <= weight <= 1.0:
                errors.add(f"{path}.{trait}", f"weight must be in [-1, 1], got {weight!r}")
                continue
            entry[trait] = float(weight)
        disposition_table[tag] = entry

    catalog = _parse_catalog(raw.get("action_catalog"), errors)
    if catalog and not any(b.default for b in catalog.values()):
        errors.add("action_catalog", "at least one action must be marked default")

    drifts = _parse_drifts(raw.get("drift_schedule"), variable_names, errors)
    rules = _parse_rules(raw.get("macro_rules"), variable_names, errors)
    rule_ids = {r.id for r in rules}
    modules = _parse_modules(raw.get("domain_modules"), variable_names, rule_ids, set(catalog), errors)
    npcs = _parse_npcs(raw.get("npcs"), disposition_table, errors)
    migrations = _parse_migrations(raw.get("migration_rules"), errors)

    tree: Optional[BTNode] = None
    if "behavior_tree" in raw:
        tree = _parse_tree(raw["behavior_tree"], "behavior_tree", errors)
    elif catalog:
        default_id = next((a for a, b in sorted(catalog.items()) if b.default), None)
        if default_id is not None:
            tree = ActionLeaf(default_id)
    if tree is not None:
        for action_id in leaf_action_ids(tree):
            if action_id not in catalog:
                errors.add("behavior_tree", f"unknown action {action_id!r}")
        if not any(catalog.get(a) is not None and catalog[a].default for a in leaf_action_ids(tree)):
            errors.add("behavior_tree", "no default action leaf in tree")
        if not guarantees_action(tree):
            errors.add("behavior_tree", "tree can fail to produce an action; no unconditional path to a leaf")

    if errors.items:
        raise ScenarioError(errors.items)
    assert tree is not None
    return Scenario(
        name=name,
        version=version,
        schema_version=SCHEMA_VERSION,
        seed_default=seed_default,
        thresholds=thresholds,
        weights=weights,
        season=season,
        variables=tuple(variables),
        drifts=drifts,
        rules=tuple(rules),
        modules=tuple(modules),
        catalog=catalog,
        disposition_table=disposition_table,
        npcs=tuple(npcs),
        migration_rules=tuple(migrations),
        tree=tree,
    )


def load_scenario_file(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())
