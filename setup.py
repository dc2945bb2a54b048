from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "qdistmat._kernels._speedups",
            ["src/qdistmat/_kernels/_speedups.c"],
            extra_compile_args=["-O2"],
            optional=True,  # build failure degrades to the pure-Python kernels
        )
    ]
)
