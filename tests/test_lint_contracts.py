"""Kernel contracts: DSL parsing and the runtime sanitizer, including
the cross-call-site defects (dim-symbol, dtype and rank drift between
chained kernels) that the runtime check alone now guards."""

import numpy as np
import pytest

from repro.lint.contracts import (ContractError, ContractSyntaxError,
                                  contract, disable, enable, enabled,
                                  exempt, parse_contract)


class TestParse:
    def test_roundtrip(self):
        spec = parse_contract(
            "labels:(n,w):int32 -> spans:(n,2):int64")
        assert spec.params[0].name == "labels"
        assert spec.params[0].spec.dims == ("n", "w")
        assert spec.params[0].spec.dtype == "int32"
        assert spec.results[0].name == "spans"
        assert spec.results[0].spec.dims == ("n", 2)

    def test_optional_and_any(self):
        spec = parse_contract("spans:(r,2):int64? -> *")
        assert spec.params[0].spec.optional
        assert spec.results[0].spec.any

    def test_sequence_of_arrays(self):
        spec = parse_contract("columns:[(e):int64] -> *")
        assert spec.params[0].each
        assert spec.params[0].spec.dims == ("e",)

    def test_dtype_only_and_dims_only_forms(self):
        spec = parse_contract("a:int64, b:(n) -> *")
        assert spec.params[0].spec.dims is None
        assert spec.params[0].spec.dtype == "int64"
        assert spec.params[1].spec.dims == ("n",)
        assert spec.params[1].spec.dtype is None

    @pytest.mark.parametrize("text", [
        "a:(n):int64",                       # no arrow
        "a:(n) -> b:(n) -> c:(n)",           # two arrows
        "a:(n), a:(m) -> *",                 # duplicate names
        "a:(n+1):int64 -> *",                # bad dim token
        "a:((bad -> *",                      # unbalanced spec
    ])
    def test_syntax_errors(self, text):
        with pytest.raises(ContractSyntaxError):
            parse_contract(text)

    def test_unknown_parameter_rejected_at_decoration(self):
        with pytest.raises(ContractSyntaxError):
            @contract("nope:(n):int64 -> *")
            def f(x):
                return x


@contract("x:(n):int64 -> y:(n):int64")
def _echo(x):
    return x


@contract("a:(n):int64, b:(n):int64 -> *")
def _paired(a, b):
    return None


@contract("v:(3):int64 -> *")
def _pinned(v):
    return None


@contract("x:(n):int64? -> *")
def _nullable(x=None):
    return None


@contract("x:(n):int64 -> p:(n):int64, q:(n):int64")
def _splits(x):
    return x, x


@exempt
def _reference_path():
    return _echo(np.zeros(2, dtype=np.int32))


class TestRuntime:
    def test_conftest_enabled_the_sanitizer(self):
        assert enabled()

    def test_passing_call(self):
        out = _echo(np.arange(4, dtype=np.int64))
        assert out.size == 4

    def test_dtype_mismatch(self):
        with pytest.raises(ContractError, match="dtype mismatch"):
            _echo(np.arange(4, dtype=np.int32))

    def test_rank_mismatch(self):
        with pytest.raises(ContractError, match="rank mismatch"):
            _echo(np.zeros((2, 2), dtype=np.int64))

    def test_dim_symbol_consistency_within_one_call(self):
        with pytest.raises(ContractError, match="dim symbol 'n'"):
            _paired(np.zeros(3, dtype=np.int64),
                    np.zeros(4, dtype=np.int64))

    def test_pinned_dimension(self):
        with pytest.raises(ContractError, match="pins 3"):
            _pinned(np.zeros(4, dtype=np.int64))

    def test_optional_allows_none(self):
        assert _nullable(None) is None
        with pytest.raises(ContractError, match="is None"):
            _echo(None)

    def test_result_tuple_arity(self):
        assert len(_splits(np.zeros(2, dtype=np.int64))) == 2

    def test_exempt_suspends_checking(self):
        assert _reference_path() is not None
        assert _reference_path.__contract_exempt__ is True

    def test_disable_turns_checks_off(self):
        disable()
        try:
            assert _echo(np.arange(2, dtype=np.int32)) is not None
        finally:
            enable()
        assert enabled()

    def test_real_kernels_are_decorated(self):
        from repro.core.buildarrays import dedup_segments
        from per_object_oracle import reference_merge
        assert dedup_segments.__contract_text__.startswith("bounds")
        assert reference_merge.__contract_exempt__ is True

    def test_result_dim_symbol_bound_by_arguments(self):
        with pytest.raises(ContractError, match="y dim symbol 'n'"):
            _shrink(np.arange(4, dtype=np.int64))

    def test_result_dtype_mismatch(self):
        with pytest.raises(ContractError, match="y dtype mismatch"):
            _widen(np.arange(4, dtype=np.int64))

    def test_result_arity_mismatch(self):
        with pytest.raises(ContractError, match="declares 2 results"):
            _one_of_two(np.arange(2, dtype=np.int64))

    def test_sequence_checks_every_element(self):
        three = np.zeros(3, dtype=np.int64)
        assert _columns([three, three]) is None
        with pytest.raises(ContractError, match=r"columns\[1\] dtype"):
            _columns([three, three.astype(np.int32)])
        with pytest.raises(ContractError,
                           match=r"columns\[1\] dim symbol 'e'"):
            _columns([three, np.zeros(4, dtype=np.int64)])

    def test_non_array_rejected(self):
        with pytest.raises(ContractError, match="not an array"):
            _echo([1, 2])

    def test_keyword_argument_checked(self):
        with pytest.raises(ContractError, match="x dtype mismatch"):
            _echo(x=np.arange(2, dtype=np.int32))


@contract("x:(n):int64 -> y:(n):int64")
def _shrink(x):
    return x[1:]


@contract("x:(n):int64 -> y:(n):int64")
def _widen(x):
    return x.astype(np.float64)


@contract("x:(n):int64 -> p:(n):int64, q:(n):int64")
def _one_of_two(x):
    return x


@contract("columns:[(e):int64] -> *")
def _columns(columns):
    return None


# The cross-call-site defects a static pass once looked for, each caught
# by the runtime check at the call that goes wrong.

@contract("bounds:(q):int64 -> refs:(s):int64, reps:(d):int64")
def _dedup(bounds):
    return np.unique(bounds), bounds


@contract("a:(n):int64, b:(n):int64 -> out:(n):int64")
def _combine(a, b):
    return a


@contract("x:(n):int32 -> y:(n):int32")
def _narrow(x):
    return x


@contract("v:(3):int64 -> w:(3):int64")
def _pinned3(v):
    return v


@contract("m:(r,c):int64 -> t:(c,r):int64")
def _flip(m):
    return m.T


class TestAcrossCalls:
    BOUNDS = np.array([1, 1, 2, 3], dtype=np.int64)  # s=3 refs, d=4 reps

    def test_dim_symbol_mismatch_across_arguments(self):
        refs, reps = _dedup(self.BOUNDS)
        with pytest.raises(ContractError,
                           match="_combine: b dim symbol 'n'"):
            _combine(refs, reps)

    def test_dtype_drift_across_call_sites(self):
        refs, _ = _dedup(self.BOUNDS)
        with pytest.raises(ContractError,
                           match="_narrow: x dtype mismatch"):
            _narrow(refs)

    def test_rank_mismatch_across_call_sites(self):
        refs, _ = _dedup(self.BOUNDS)
        with pytest.raises(ContractError, match="_flip: m rank mismatch"):
            _flip(refs)

    def test_invalid_dsl_reported(self):
        with pytest.raises(ContractSyntaxError):
            contract("q:((bad -> r:(n):int64")

    def test_unknown_parameter_names_reported(self):
        with pytest.raises(ContractSyntaxError,
                           match=r"names parameters \['z'\]"):
            @contract("z:(m):int64 -> zz:(m):int64")
            def bad_names(missing_param):
                return missing_param

    def test_clean_and_unprovable_sites_stay_silent(self):
        refs, _ = _dedup(self.BOUNDS)
        assert _combine(refs, refs) is refs
        assert _pinned3(refs) is refs

    def test_pinned_site_decided_by_the_data(self):
        refs, _ = _dedup(np.array([5, 5, 7], dtype=np.int64))
        with pytest.raises(ContractError, match="pins 3"):
            _pinned3(refs)

