"""Bearer-token authentication for the HTTP frontend, backed by the vault.

The tenant-auth shape follows the certification-service pattern (cf. OIDC²:
the caller proves identity with a bearer credential, the service holds only
a verifier): each tenant's token is issued once by
:meth:`~repro.service.vault.KeyVault.issue_token` and presented as
``Authorization: Bearer <token>``; the vault stores nothing but the SHA-256
digest, compared in constant time.

Two failure modes, deliberately distinct:

* **401** — no usable credential (header missing or not a bearer scheme);
  the client should obtain a token;
* **403** — a credential was presented but it is not the named tenant's
  current token (wrong token, another tenant's token, or a rotated-away
  one); retrying with the same credential is pointless.

Admin endpoints (tenant registration, vault-wide status) are guarded by an
optional static admin token configured at serve time; when none is
configured they are open — the single-operator development mode.
"""

from __future__ import annotations

import hmac
from typing import Mapping

from repro.service.vault import KeyVault

__all__ = ["AuthError", "Authenticator", "bearer_token"]


class AuthError(Exception):
    """An authentication/authorisation failure with its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def bearer_token(environ: Mapping[str, str]) -> str | None:
    """The bearer token of a WSGI *environ*, or ``None`` when absent/malformed."""
    header = environ.get("HTTP_AUTHORIZATION", "")
    scheme, _, credential = header.partition(" ")
    if scheme.lower() != "bearer" or not credential.strip():
        return None
    return credential.strip()


class Authenticator:
    """Validates request credentials against the vault (and the admin token)."""

    def __init__(self, vault: KeyVault, *, admin_token: str | None = None) -> None:
        self._vault = vault
        self._admin_token = admin_token

    def require_tenant(self, environ: Mapping[str, str], tenant_id: str) -> None:
        """Authorise the request for *tenant_id* or raise :class:`AuthError`.

        The admin token, when configured, is also accepted for any tenant —
        the operator can drive every endpoint with one credential.
        """
        token = bearer_token(environ)
        if token is None:
            raise AuthError(401, "missing bearer token (Authorization: Bearer <token>)")
        if self._is_admin(token):
            return
        if not self._vault.verify_token(tenant_id, token):
            raise AuthError(403, f"token is not valid for tenant {tenant_id!r}")

    def require_admin(self, environ: Mapping[str, str]) -> None:
        """Authorise an admin endpoint; a no-op when no admin token is configured."""
        if self._admin_token is None:
            return
        token = bearer_token(environ)
        if token is None:
            raise AuthError(401, "missing bearer token (Authorization: Bearer <token>)")
        if not self._is_admin(token):
            raise AuthError(403, "admin token required for this endpoint")

    def _is_admin(self, token: str) -> bool:
        return self._admin_token is not None and hmac.compare_digest(self._admin_token, token)
