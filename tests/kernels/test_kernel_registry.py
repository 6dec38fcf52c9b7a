"""Registry contract for the kernel backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import (
    DEFAULT_KERNEL,
    KERNELS,
    FastKernel,
    RandomizerKernel,
    ReferenceKernel,
    available_kernels,
    get_kernel,
    register_kernel,
    resolve_kernel,
)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_kernels() == ["fast", "reference"]
        assert isinstance(get_kernel("reference"), ReferenceKernel)
        assert isinstance(get_kernel("fast"), FastKernel)

    def test_default_kernel_is_reference(self):
        assert DEFAULT_KERNEL == "reference"
        assert DEFAULT_KERNEL in KERNELS

    def test_unknown_kernel_raises_with_known_names(self):
        with pytest.raises(KeyError, match="unknown kernel 'turbo'.*fast"):
            get_kernel("turbo")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_kernel(ReferenceKernel())

    def test_overwrite_allows_replacement(self):
        original = get_kernel("reference")
        try:
            replacement = ReferenceKernel()
            register_kernel(replacement, overwrite=True)
            assert get_kernel("reference") is replacement
        finally:
            register_kernel(original, overwrite=True)

    def test_register_rejects_non_kernel(self):
        with pytest.raises(TypeError, match="RandomizerKernel"):
            register_kernel("fast")


class TestResolveKernel:
    def test_none_passes_through(self):
        assert resolve_kernel(None) is None

    def test_name_resolves(self):
        assert resolve_kernel("fast") is get_kernel("fast")

    def test_instance_passes_through(self):
        kernel = get_kernel("fast")
        assert resolve_kernel(kernel) is kernel

    def test_rejects_other_types(self):
        with pytest.raises(TypeError, match="cannot resolve"):
            resolve_kernel(42)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            resolve_kernel("nope")


class TestKernelSurface:
    @pytest.mark.parametrize("name", ["reference", "fast"])
    def test_uniform_signs_shape_dtype_and_values(self, name):
        kernel = get_kernel(name)
        signs = kernel.uniform_signs((123, 7), np.random.default_rng(0))
        assert signs.shape == (123, 7)
        assert signs.dtype == np.int8
        assert set(np.unique(signs)) <= {-1, 1}

    @pytest.mark.parametrize("name", ["reference", "fast"])
    def test_uniform_signs_empty(self, name):
        kernel = get_kernel(name)
        signs = kernel.uniform_signs((0, 5), np.random.default_rng(0))
        assert signs.shape == (0, 5)

    def test_abstract_interface(self):
        assert issubclass(FastKernel, RandomizerKernel)
        with pytest.raises(TypeError):
            RandomizerKernel()
