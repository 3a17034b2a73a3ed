"""Scenario files: a strict, versioned JSON schema for whole towns.

Loading either returns a fully cross-checked Scenario or raises with every
problem found, each tagged with its path. Unknown fields are rejected
outright; every variable, action and rule reference must resolve; the
fallback behavior tree must provably end in a default action. Anything the
runtime would otherwise have to guess is settled here, at load time.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Callable, Optional, Union

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
    REQUIREMENT_OPS,
    Scalar,
    SEASONS,
    TagSelector,
    VariablePredicate,
    WorldLedger,
    is_valid_tag,
    validate_profile,
)
from .director import DriftEntry
from .hub import ActivationMatcher, DirectiveTemplate, DomainModuleSpec, ParameterExpr
from .npc import ActionBinding, TagMigrationRule, UtilityWeights

SCHEMA_VERSION = 1
# Largest magnitude of any scenario number. Sums and products of such
# values stay far inside the float range over any run of practical length,
# so state and trace never reach an infinity.
MAX_NUMBER = 1e15
MAX_SEED = 2**64 - 1
_NUMBER = f"expected a number in [-{MAX_NUMBER:g}, {MAX_NUMBER:g}]"


class ScenarioError(ValueError):
    """All validation problems from one load attempt, path-tagged."""

    def __init__(self, errors: list[str]) -> None:
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


@dataclass(frozen=True)
class Scenario:
    name: str
    schema_version: int
    seed_default: int
    thresholds: LevelThresholds
    weights: UtilityWeights
    season: str
    variables: tuple[CausalVariable, ...]
    drifts: tuple[DriftEntry, ...]
    rules: tuple[MacroEventRule, ...]
    modules: tuple[DomainModuleSpec, ...]
    catalog: dict[str, ActionBinding]
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
    # NaN, +-Infinity and huge integers all fail the bound.
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= MAX_NUMBER


def _dict_or_empty(value: Any) -> dict:
    return value if isinstance(value, dict) else {}


def _items(raw: Any, path: str, errors: _Errors, nonempty: str = "") -> Optional[list[tuple[str, Any]]]:
    """Pair each entry of a list with its path `path[i]`. A non-list is
    reported as "expected a list"; when `nonempty` is given, it is the
    message instead and an empty list fails too. None means it failed."""
    if not isinstance(raw, list) or (nonempty and not raw):
        errors.add(path, nonempty or "expected a list")
        return None
    return [(f"{path}[{i}]", entry) for i, entry in enumerate(raw)]


def _claim(seen: set[str], key: Optional[str], path: str, what: str, errors: _Errors) -> bool:
    """Record `key` as taken; report a repeat and return False."""
    if key in seen:
        errors.add(path, f"duplicate {what} {key!r}")
        return False
    if key is not None:
        seen.add(key)
    return True


def _num_map(raw: Any, path: str, errors: _Errors, rule: str = _NUMBER,
             ok: Callable[[Any], bool] = lambda value: True) -> dict[str, float]:
    """An object of numbers; entries that are not numbers or fail `ok` are
    reported against `rule` and left out. A non-object, null included, is
    reported and reads as empty; callers default an absent key to `{}`."""
    if not isinstance(raw, dict):
        errors.add(path, "expected an object")
        return {}
    out: dict[str, float] = {}
    for key, value in raw.items():
        if _is_num(value) and ok(value):
            out[key] = float(value)
        else:
            errors.add(f"{path}.{key}", f"{rule}, got {value!r}")
    return out


def _check_obj(obj: Any, path: str, required: tuple[str, ...], optional: tuple[str, ...], errors: _Errors) -> bool:
    """Strict object shape check: required keys present, nothing unknown."""
    if not isinstance(obj, dict):
        errors.add(path, f"expected an object, got {type(obj).__name__}")
        return False
    reported = len(errors.items)
    for key in required:
        if key not in obj:
            errors.add(path, f"missing required field '{key}'")
    for key in obj:
        if key not in required and key not in optional:
            errors.add(path, f"unknown field '{key}'")
    return len(errors.items) == reported


def _num_field(obj: dict, key: str, path: str, errors: _Errors,
               lo: Optional[float] = None, hi: Optional[float] = None,
               default: Optional[float] = None) -> Optional[float]:
    if key not in obj:
        return default
    value = obj[key]
    if not _is_num(value):
        errors.add(f"{path}.{key}", f"{_NUMBER}, got {value!r}")
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
    label = _str_field(obj, "level", path, errors)
    if label is not None:
        if label not in LEVEL_BY_LABEL:
            errors.add(f"{path}.level", f"unknown level {label!r}")
        else:
            level = LEVEL_BY_LABEL[label]
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


# What a tree condition's namespace reads, for the error that names an
# undeclared key.
_TREE_KEY_NOUNS = {"needs": "need", "state": "state key", "personality": "trait", "var": "variable"}


def _parse_tree(obj: Any, path: str, declared: dict[str, set[str]], errors: _Errors) -> Optional[BTNode]:
    """A behavior tree node. `declared` maps each condition namespace to
    the keys something in the scenario declares; a condition on any other
    key would read 0.0 forever, so it fails here."""
    if not isinstance(obj, dict) or "kind" not in obj:
        errors.add(path, "expected a node object with a 'kind' field")
        return None
    kind = obj["kind"]
    if kind in ("selector", "sequence"):
        if not _check_obj(obj, path, ("kind", "children"), (), errors):
            return None
        children = _items(obj.get("children"), f"{path}.children", errors, "non-empty list required")
        if children is None:
            return None
        parsed = [_parse_tree(child, cpath, declared, errors) for cpath, child in children]
        if any(p is None for p in parsed):
            return None
        return Selector(tuple(parsed)) if kind == "selector" else Sequence(tuple(parsed))
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
        namespace, _, key = fld.partition(".")
        if namespace not in declared:
            errors.add(f"{path}.field", f"field {fld!r} must start with needs./state./personality./var.")
            return None
        if not key:
            errors.add(f"{path}.field", f"field {fld!r} names no key after its namespace")
            return None
        if key not in declared[namespace]:
            # Reported, but the node stays, so the whole-tree checks still run.
            errors.add(f"{path}.field", f"unknown {_TREE_KEY_NOUNS[namespace]} {key!r}")
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


def _optional_list(raw: dict, key: str) -> Any:
    """An optional top-level list: absent and null both read as empty."""
    return [] if raw.get(key) is None else raw[key]


def _parse_variables(raw: Any, errors: _Errors) -> list[CausalVariable]:
    out: list[CausalVariable] = []
    seen: set[str] = set()
    for path, obj in _items(raw, "ledger_init.variables", errors) or ():
        if not _check_obj(obj, path, ("name", "intensity"), (), errors):
            continue
        name = _tag_field(obj, "name", path, errors)
        intensity = _num_field(obj, "intensity", path, errors, lo=0.0, hi=1.0)
        if name is None or intensity is None:
            continue
        if not _claim(seen, name, f"{path}.name", "variable", errors):
            continue
        out.append(CausalVariable(name=name, intensity=float(intensity), history=((0, float(intensity)),)))
    return out


def _parse_drifts(raw: Any, variables: set[str], errors: _Errors) -> tuple[DriftEntry, ...]:
    entries: list[DriftEntry] = []
    for path, obj in _items(raw, "drift_schedule", errors) or ():
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
    return tuple(entries)


def _parse_rules(raw: Any, variables: set[str], errors: _Errors) -> list[MacroEventRule]:
    out: list[MacroEventRule] = []
    seen: set[str] = set()
    for path, obj in _items(raw, "macro_rules", errors) or ():
        if not _check_obj(obj, path, ("id", "name", "trigger"),
                          ("consistency_requirements", "effects", "cooldown_ticks"), errors):
            continue
        rule_id = _tag_field(obj, "id", path, errors)
        name = _str_field(obj, "name", path, errors)
        cooldown = _int_field(obj, "cooldown_ticks", path, errors, lo=0, default=0)
        if not _claim(seen, rule_id, f"{path}.id", "rule id", errors):
            continue

        trigger_raw = _items(obj.get("trigger"), f"{path}.trigger", errors,
                             "non-empty list of predicates required")
        if trigger_raw is None:
            continue
        trigger = [_parse_predicate(p, ppath, variables, errors) for ppath, p in trigger_raw]

        reqs_raw = _items(obj.get("consistency_requirements", []), f"{path}.consistency_requirements", errors)
        effs_raw = _items(obj.get("effects", []), f"{path}.effects", errors)

        requirements: list[LedgerRequirement] = []
        for rpath, req in reqs_raw or ():
            if not _check_obj(req, rpath, ("field", "op", "value"), (), errors):
                continue
            fld = _str_field(req, "field", rpath, errors)
            op = _str_field(req, "op", rpath, errors)
            value = req.get("value")
            if op is not None and op not in REQUIREMENT_OPS:
                errors.add(f"{rpath}.op", f"op must be one of {' '.join(REQUIREMENT_OPS)}, got {op!r}")
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
                    errors.add(f"{rpath}.value", f"{_NUMBER}, got {value!r}")
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
        for epath, eff in effs_raw or ():
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
            trigger=tuple(trigger),
            consistency_requirements=tuple(requirements),
            effects=tuple(effects),
            cooldown_ticks=cooldown or 0,
        ))
    return out


def _parse_parameters(raw: Any, path: str, variables: set[str], errors: _Errors) -> dict[str, Union[Scalar, ParameterExpr]]:
    out: dict[str, Union[Scalar, ParameterExpr]] = {}
    if raw is not None and not isinstance(raw, dict):
        errors.add(path, "expected an object")
    for name, value in _dict_or_empty(raw).items():
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
    seen: set[str] = set()
    for path, obj in _items(raw, "domain_modules", errors) or ():
        if not _check_obj(obj, path, ("id", "activation", "directives"), (), errors):
            continue
        module_id = _tag_field(obj, "id", path, errors)
        if not _claim(seen, module_id, f"{path}.id", "module id", errors):
            continue

        matchers: list[ActivationMatcher] = []
        activation_raw = _items(obj.get("activation"), f"{path}.activation", errors,
                                "non-empty list of matchers required")
        if activation_raw is None:
            continue
        for mpath, m in activation_raw:
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
        directives_raw = _items(obj.get("directives"), f"{path}.directives", errors)
        if directives_raw is None:
            continue
        for tpath, t in directives_raw:
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
    seen: set[str] = set()
    for path, obj in _items(raw, "action_catalog", errors, "non-empty list of action bindings required") or ():
        if not _check_obj(obj, path, ("action_id",),
                          ("trait_affinities", "satisfies_needs", "local_effects", "default"), errors):
            continue
        action_id = _tag_field(obj, "action_id", path, errors)
        if action_id is None or not _claim(seen, action_id, f"{path}.action_id", "action", errors):
            continue
        affinities = _num_map(obj.get("trait_affinities", {}), f"{path}.trait_affinities", errors,
                              "sign must be 1 or -1", lambda sign: sign in (1, -1))
        needs = _num_map(obj.get("satisfies_needs", {}), f"{path}.satisfies_needs", errors,
                         "relief must be in [0, 1]", lambda relief: 0.0 <= relief <= 1.0)
        effects = _num_map(obj.get("local_effects", {}), f"{path}.local_effects", errors)
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
    seen: set[str] = set()
    for path, obj in _items(raw, "npcs", errors) or ():
        if not _check_obj(obj, path, ("id", "tags", "role_tag", "local_state"),
                          ("personality", "needs"), errors):
            continue
        npc_id = _str_field(obj, "id", path, errors)
        role_tag = _str_field(obj, "role_tag", path, errors)
        tag_items = _items(obj.get("tags"), f"{path}.tags", errors)
        if tag_items is None:
            continue
        tags: list[str] = []
        for tag_path, tag in tag_items:
            if isinstance(tag, str):
                tags.append(tag)
            else:
                errors.add(tag_path, f"expected a string, got {tag!r}")
        sections = {
            section: _num_map(obj.get(section, {}), f"{path}.{section}", errors)
            for section in ("personality", "needs", "local_state")
        }
        if npc_id is None or role_tag is None:
            continue
        if not _claim(seen, npc_id, f"{path}.id", "npc id", errors):
            continue

        # Disposition tags contribute personality in tag order; explicit
        # entries override the table.
        personality: dict[str, float] = {}
        for tag in tags:
            if tag in disposition_table:
                personality.update(disposition_table[tag])
        personality.update(sections["personality"])

        profile = NpcProfile(
            id=npc_id,
            tags=tuple(tags),
            role_tag=role_tag,
            personality=personality,
            needs=sections["needs"],
            local_state=sections["local_state"],
        )
        violations = validate_profile(profile)
        for violation in violations:
            errors.add(path, violation)
        if not violations:
            out.append(profile)
    return out


def _parse_migrations(raw: Any, errors: _Errors) -> list[TagMigrationRule]:
    out: list[TagMigrationRule] = []
    for path, obj in _items(raw, "migration_rules", errors) or ():
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

    name = ""
    meta = raw.get("meta")
    if _check_obj(meta, "meta", ("name",), ("version",), errors):
        name = _str_field(meta, "name", "meta", errors) or ""
        _str_field(meta, "version", "meta", errors)

    seed_default = _int_field(raw, "seed_default", "$", errors, lo=0, default=0) or 0
    if seed_default > MAX_SEED:
        errors.add("$.seed_default", f"seed must fit in 64 bits, got {seed_default}")

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
        defaults = asdict(weights)
        if _check_obj(obj, "utility_weights", (), tuple(defaults), errors):
            # Every weight but the acceptance threshold is non-negative.
            weights = UtilityWeights(**{
                key: float(_num_field(obj, key, "utility_weights", errors,
                                      lo=None if key == "threshold" else 0.0, default=default))
                for key, default in defaults.items()
            })

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
        disposition_table[tag] = _num_map(traits, path, errors,
                                          "weight must be in [-1, 1]", lambda weight: -1.0 <= weight <= 1.0)

    catalog = _parse_catalog(raw.get("action_catalog"), errors)
    if catalog and not any(b.default for b in catalog.values()):
        errors.add("action_catalog", "at least one action must be marked default")

    drifts = _parse_drifts(_optional_list(raw, "drift_schedule"), variable_names, errors)
    rules = _parse_rules(_optional_list(raw, "macro_rules"), variable_names, errors)
    rule_ids = {r.id for r in rules}
    modules = _parse_modules(_optional_list(raw, "domain_modules"), variable_names, rule_ids, set(catalog), errors)
    npcs = _parse_npcs(raw.get("npcs"), disposition_table, errors)
    migrations = _parse_migrations(_optional_list(raw, "migration_rules"), errors)

    tree: Optional[BTNode] = None
    if "behavior_tree" in raw:
        bindings = catalog.values()
        declared = {
            "needs": {k for n in npcs for k in n.needs} | {k for b in bindings for k in b.satisfies_needs},
            "state": {k for n in npcs for k in n.local_state} | {k for b in bindings for k in b.local_effects},
            "personality": ({k for n in npcs for k in n.personality}
                            | {k for b in bindings for k in b.trait_affinities}),
            "var": variable_names,
        }
        tree = _parse_tree(raw["behavior_tree"], "behavior_tree", declared, errors)
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
        npcs=tuple(npcs),
        migration_rules=tuple(migrations),
        tree=tree,
    )


def load_scenario_file(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())
